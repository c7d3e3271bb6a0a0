//! Execute an optimizer plan on the virtual cluster.
//!
//! Every processor of the `√P × √P` grid holds real `f64` blocks; Cannon
//! alignments and rotations move actual data between neighbor processors
//! (using the skew bookkeeping of `tce_dist::cannon`); fused loops are
//! *really* iterated, producing and consuming array slices, so the memory
//! reduction of fusion is observable in the peak-footprint counter; and the
//! final result is compared element-wise against the sequential reference.
//!
//! Time is charged from the raw [`MachineModel`](tce_cost::MachineModel)
//! (the optimizer saw only the interpolated characterization, so any
//! interpolation error in the optimizer's view shows up here honestly).
//! A full rotation costs exactly `q` charged rounds, like the model's
//! `RCost`: one alignment plus `q−1` shifts for rotating inputs, or
//! `q−1` shifts plus one homing round for a rotating result.

use std::collections::HashMap;

use tce_core::{ExecutionPlan, PlanStep};
use tce_cost::CostModel;
use tce_dist::cannon::{alignment_source, num_steps, rotation_target};
use tce_dist::{myrange, CannonPattern, Distribution, GridDim, Operand, ProcCoord};
use tce_expr::{ExprTree, IndexId, NodeId, NodeKind, Tensor};

use crate::einsum;
use crate::metrics::{CommEvent, CommKind, Metrics};
use crate::tensor::Block;

/// Simulation error.
#[derive(Debug)]
pub enum SimError {
    /// The grid is not square (Cannon execution needs one).
    NonSquareGrid,
    /// An extent is not divisible by the grid dimension that partitions it.
    Indivisible {
        /// The index variable.
        index: String,
        /// Its extent.
        extent: u64,
        /// The grid extent it must divide by.
        parts: u32,
    },
    /// The sequential reference (one full array per tree node) cannot be
    /// allocated.
    ReferenceTooLarge {
        /// Bytes it needs (saturated at `u128::MAX`).
        bytes: u128,
    },
    /// Internal inconsistency between plan and execution (a bug).
    Inconsistent(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NonSquareGrid => write!(f, "Cannon execution requires a square grid"),
            SimError::Indivisible { index, extent, parts } => write!(
                f,
                "extent {extent} of `{index}` is not divisible by {parts}; \
                 the simulator requires exact blocking"
            ),
            SimError::ReferenceTooLarge { bytes } => write!(
                f,
                "the sequential reference needs {bytes} bytes of memory, more than can be allocated"
            ),
            SimError::Inconsistent(m) => write!(f, "plan/execution inconsistency: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// The largest max |simulated − reference| a run may show and still pass
/// verification (absolute). [`SimReport::verified`] scales it by the
/// result's magnitude when that exceeds 1.
pub const VERIFY_ABS_TOL: f64 = 1e-9;

/// Simulation outcome.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Accounting counters.
    pub metrics: Metrics,
    /// Largest |simulated − reference| over the final result.
    pub max_abs_err: f64,
    /// Largest |reference| over the final result: the scale of
    /// `max_abs_err`.
    pub max_abs_ref: f64,
    /// Words of the final result.
    pub result_words: u128,
}

impl SimReport {
    /// The `tce simulate` verdict: `max_abs_err ≤ VERIFY_ABS_TOL ·
    /// max(1, max_abs_ref)`. Absolute for results of magnitude up to 1 and
    /// relative above it, so the rounding of a large result (a relative
    /// ~1e-15 that reads ~1e-8 in absolute terms) passes while a wrong
    /// element, block or shift still fails.
    pub fn verified(&self) -> bool {
        self.max_abs_err <= VERIFY_ABS_TOL * self.max_abs_ref.max(1.0)
    }
}

/// A pinned (fused) loop: the index, the current iteration position, and
/// its grid placement (fused indices may be distributed, §3.2-iii).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pin {
    index: IndexId,
    pos: u64,
    placement: Option<GridDim>,
}

impl Pin {
    /// The global value this pin denotes on processor `coord`.
    fn value(&self, coord: ProcCoord, extent: u64, grid: tce_dist::ProcGrid) -> u64 {
        match self.placement {
            None => self.pos,
            Some(d) => {
                let z = match d {
                    GridDim::Dim1 => coord.z1,
                    GridDim::Dim2 => coord.z2,
                };
                myrange(z, extent, grid.extent(d)).start + self.pos
            }
        }
    }
}

struct Sim<'a> {
    tree: &'a ExprTree,
    cm: &'a CostModel,
    inputs: HashMap<NodeId, Block>,
    /// Per processor rank: home blocks of arrays, with the pin values they
    /// were produced under (fused slices are overwritten per iteration).
    store: Vec<HashMap<NodeId, (Vec<Pin>, Block)>>,
    steps_by_node: HashMap<NodeId, &'a PlanStep>,
    metrics: Metrics,
    /// Communication event log (`Some` when tracing).
    trace: Option<Vec<CommEvent>>,
    /// Name of the step whose kernel is currently running.
    current_step: String,
}

/// Execute `plan` for `tree` on the virtual cluster described by `cm`,
/// verify against the sequential reference, and report.
pub fn simulate(
    tree: &ExprTree,
    plan: &'_ ExecutionPlan,
    cm: &CostModel,
    seed: u64,
) -> Result<SimReport, SimError> {
    simulate_traced(tree, plan, cm, seed, false).map(|(r, _)| r)
}

/// Like [`simulate`], optionally recording every communication round as a
/// [`CommEvent`] for per-step breakdowns and debugging.
pub fn simulate_traced(
    tree: &ExprTree,
    plan: &'_ ExecutionPlan,
    cm: &CostModel,
    seed: u64,
    trace: bool,
) -> Result<(SimReport, Vec<CommEvent>), SimError> {
    if !cm.grid.is_square() {
        return Err(SimError::NonSquareGrid);
    }
    reserve_reference(tree)?;
    let inputs = einsum::random_inputs(tree, seed);
    let reference = einsum::evaluate(tree, &inputs);

    let mut sim = Sim {
        tree,
        cm,
        inputs,
        store: (0..cm.grid.num_procs()).map(|_| HashMap::new()).collect(),
        steps_by_node: plan.steps.iter().map(|s| (s.node, s)).collect(),
        metrics: Metrics::default(),
        trace: trace.then(Vec::new),
        current_step: String::new(),
    };

    // Execute cluster roots (steps not fused upward) in order.
    for step in &plan.steps {
        if step.result_fusion.is_empty() {
            sim.exec_node(step, &mut Vec::new())?;
        }
    }

    // Reassemble and verify the final result.
    let root = tree.root();
    let result_tensor = &tree.node(root).tensor;
    let mut assembled = Block::full(result_tensor, &tree.space);
    for rank in 0..cm.grid.num_procs() {
        let (_, block) = sim.store[rank as usize]
            .get(&root)
            .ok_or_else(|| SimError::Inconsistent("missing root block".into()))?;
        assembled.combine(&[block], |_, v| v);
    }
    let (max_abs_err, max_abs_ref) = compare(&assembled, &reference[&root]);
    let events = sim.trace.take().unwrap_or_default();
    let report = SimReport {
        metrics: sim.metrics,
        max_abs_err,
        max_abs_ref,
        result_words: assembled.words(),
    };
    Ok((report, events))
}

/// `(max |result − reference|, max |reference|)`: the error and its scale,
/// from one scan of the reference the run already holds.
fn compare(result: &Block, reference: &Block) -> (f64, f64) {
    let scale = reference.data.iter().fold(0.0, |m: f64, v| m.max(v.abs()));
    (result.max_abs_diff(reference), scale)
}

/// Fail with [`SimError::ReferenceTooLarge`], instead of aborting in the
/// allocator, when the reference's arrays cannot all be allocated at once.
fn reserve_reference(tree: &ExprTree) -> Result<(), SimError> {
    let words = tree.ids().try_fold(0u128, |acc, id| {
        acc.checked_add(tree.space.checked_volume(&tree.node(id).tensor.dims)?)
    });
    let fits = words
        .and_then(|w| usize::try_from(w).ok())
        .is_some_and(|w| Vec::<f64>::new().try_reserve_exact(w).is_ok());
    if fits {
        return Ok(());
    }
    let bytes = words.and_then(|w| w.checked_mul(8)).unwrap_or(u128::MAX);
    Err(SimError::ReferenceTooLarge { bytes })
}

impl<'a> Sim<'a> {
    fn grid(&self) -> tce_dist::ProcGrid {
        self.cm.grid
    }

    /// Record one communication round of `messages` messages. Call sites
    /// charge [`Metrics`] first, so the round's virtual start time is the
    /// accumulated simulated clock minus this round's own duration. The
    /// event goes to the in-memory trace (when tracing) and to the
    /// installed observability sink as a slice on the step's lane.
    fn record(&mut self, kind: CommKind, bytes: u128, messages: u64, seconds: f64) {
        let t_start = (self.metrics.comm_seconds + self.metrics.compute_seconds) - seconds;
        if tce_obs::enabled() {
            tce_obs::slice_at(
                &format!("step {}", self.current_step),
                kind.name(),
                t_start * 1e6,
                seconds * 1e6,
                vec![
                    ("bytes".to_string(), bytes.to_string()),
                    ("messages".to_string(), messages.to_string()),
                ],
            );
        }
        if let Some(log) = &mut self.trace {
            log.push(CommEvent {
                step: self.current_step.clone(),
                kind,
                bytes,
                messages,
                seconds,
                t_start,
            });
        }
    }

    /// One lockstep message along a given grid dimension.
    fn round_time(&self, travel: GridDim, bytes: f64) -> f64 {
        match travel {
            GridDim::Dim1 => self.cm.machine.msg_time(bytes),
            GridDim::Dim2 => self.cm.machine.msg_time_dim2(bytes),
        }
    }

    fn extent(&self, id: IndexId) -> u64 {
        self.tree.space.extent(id)
    }

    /// Divisibility check for a partitioned extent.
    fn check_div(&self, id: IndexId, parts: u32) -> Result<(), SimError> {
        let n = self.extent(id);
        if !n.is_multiple_of(u64::from(parts)) {
            return Err(SimError::Indivisible {
                index: self.tree.space.name(id).to_owned(),
                extent: n,
                parts,
            });
        }
        Ok(())
    }

    /// The grid placement of index `id` in any of the step's distributions
    /// (consistent across them by construction — asserted).
    fn placement_at(&self, step: &PlanStep, id: IndexId) -> Option<GridDim> {
        let mut dists: Vec<Distribution> = vec![step.result_dist];
        dists.extend(step.operands.iter().map(|o| o.required_dist));
        let mut found: Option<GridDim> = None;
        for d in dists {
            if let Some(g) = d.position_of(id) {
                if let Some(prev) = found {
                    assert_eq!(prev, g, "inconsistent placement of fused index");
                }
                found = Some(g);
            }
        }
        found
    }

    /// Global ranges of `tensor` on processor `coord` under `dist`, with
    /// pinned dimensions narrowed to their current value.
    fn block_ranges(
        &self,
        tensor: &Tensor,
        dist: Distribution,
        coord: ProcCoord,
        pins: &[Pin],
    ) -> Vec<std::ops::Range<u64>> {
        tensor
            .dims
            .iter()
            .map(|&d| {
                if let Some(pin) = pins.iter().find(|p| p.index == d) {
                    let v = pin.value(coord, self.extent(d), self.grid());
                    v..v + 1
                } else if let Some(g) = dist.position_of(d) {
                    let z = match g {
                        GridDim::Dim1 => coord.z1,
                        GridDim::Dim2 => coord.z2,
                    };
                    myrange(z, self.extent(d), self.grid().extent(g))
                } else {
                    0..self.extent(d)
                }
            })
            .collect()
    }

    /// Current per-processor footprint: stored blocks (max over procs).
    fn observe_memory(&mut self, extra_words: u128) {
        let peak = self
            .store
            .iter()
            .map(|s| s.values().map(|(_, b)| b.words()).sum::<u128>())
            .max()
            .unwrap_or(0);
        self.metrics.observe_words(peak + extra_words);
    }

    /// Execute one plan step (and, recursively, its fused children), with
    /// `pins` holding the values of the step's parent-edge fused loops.
    fn exec_node(&mut self, step: &'a PlanStep, pins: &mut Vec<Pin>) -> Result<(), SimError> {
        assert_eq!(
            pins.len(),
            step.result_fusion.len(),
            "pins must cover exactly the parent-edge fusion of `{}`",
            step.result_name
        );
        // Skip recomputation when this slice already exists (hoisting of
        // children whose prefix is shorter than the surrounding loops).
        if let Some((have, _)) = self.store[0].get(&step.node) {
            if have == pins {
                return Ok(());
            }
        }
        // Allocate (or overwrite) the result's home blocks.
        let result_tensor = &self.tree.node(step.node).tensor;
        for rank in 0..self.grid().num_procs() {
            let coord = self.grid().coord(rank);
            let ranges = self.block_ranges(result_tensor, step.result_dist, coord, pins);
            let block = Block::zeros(result_tensor.dims.clone(), ranges);
            self.store[rank as usize].insert(step.node, (pins.clone(), block));
        }
        self.observe_memory(0);
        // Children fused with a *shorter* prefix than ours are hoisted:
        // they live outside our extra loops and depend only on a prefix of
        // our pins (the store check above makes re-entry cheap).
        for op in &step.operands {
            if !op.is_leaf && !op.fusion.is_empty() && op.fusion.len() < pins.len() {
                for (p, id) in pins.iter().zip(op.fusion.iter()) {
                    assert_eq!(p.index, id, "pin stack diverges from hoisted child prefix");
                }
                let child_step = self.steps_by_node[&op.node];
                let mut child_pins = pins[..op.fusion.len()].to_vec();
                self.exec_node(child_step, &mut child_pins)?;
            }
        }
        self.nest(step, pins)
    }

    /// Open the surrounding fused loops beyond `pins`, producing fused
    /// children as soon as their prefix is covered, and run the kernel at
    /// full depth.
    fn nest(&mut self, step: &'a PlanStep, pins: &mut Vec<Pin>) -> Result<(), SimError> {
        // Children whose whole prefix is open and equal to the pin stack.
        for op in &step.operands {
            if op.is_leaf || op.fusion.is_empty() || op.fusion.len() != pins.len() {
                continue;
            }
            for (p, id) in pins.iter().zip(op.fusion.iter()) {
                assert_eq!(p.index, id, "pin stack diverges from child prefix");
            }
            let child_step = self.steps_by_node[&op.node];
            let mut child_pins = pins.clone();
            self.exec_node(child_step, &mut child_pins)?;
        }
        let surrounding: Vec<IndexId> = step.surrounding.iter().collect();
        if pins.len() == surrounding.len() {
            return self.kernel(step, pins);
        }
        let idx = surrounding[pins.len()];
        let placement = self.placement_at(step, idx);
        let trip = match placement {
            None => self.extent(idx),
            Some(d) => {
                self.check_div(idx, self.grid().extent(d))?;
                self.extent(idx) / u64::from(self.grid().extent(d))
            }
        };
        for pos in 0..trip {
            pins.push(Pin { index: idx, pos, placement });
            self.nest(step, pins)?;
            pins.pop();
        }
        Ok(())
    }

    /// The block of an operand as held *natively* by `coord` under `dist`,
    /// narrowed by `pins`. Leaves materialize from the input arrays;
    /// intermediates come from the store (sub-sliced as needed).
    fn operand_block(
        &self,
        node: NodeId,
        dist: Distribution,
        coord: ProcCoord,
        pins: &[Pin],
    ) -> Result<Block, SimError> {
        let tensor = &self.tree.node(node).tensor;
        let ranges = self.block_ranges(tensor, dist, coord, pins);
        if self.tree.node(node).is_leaf() {
            return Ok(self.inputs[&node].sub_block(ranges));
        }
        let rank = self.grid().rank(coord) as usize;
        let (_, stored) = self.store[rank]
            .get(&node)
            .ok_or_else(|| SimError::Inconsistent(format!("missing block of node {node:?}")))?;
        // The stored block may be wider than requested (it is pinned only
        // by its own edge fusion); narrow it.
        for (have, want) in stored.ranges.iter().zip(&ranges) {
            if want.start < have.start || want.end > have.end {
                return Err(SimError::Inconsistent(format!(
                    "stored block of {} does not cover requested ranges",
                    self.tree.node(node).tensor.name
                )));
            }
        }
        Ok(stored.sub_block(ranges))
    }

    /// Re-home an unfused intermediate from its produced distribution to
    /// the required one, charging the model's redistribution cost.
    fn redistribute(
        &mut self,
        node: NodeId,
        from: Distribution,
        to: Distribution,
        redist_cost: f64,
    ) -> Result<(), SimError> {
        if from == to {
            return Ok(());
        }
        let tensor = self.tree.node(node).tensor.clone();
        // Assemble the full array from the old blocks…
        let mut full = Block::full(&tensor, &self.tree.space);
        for rank in 0..self.grid().num_procs() {
            full.combine(&[&self.store[rank as usize][&node].1], |_, v| v);
        }
        // …and re-split under the new distribution.
        for rank in 0..self.grid().num_procs() {
            let coord = self.grid().coord(rank);
            let ranges = self.block_ranges(&tensor, to, coord, &[]);
            let block = full.sub_block(ranges);
            self.store[rank as usize].insert(node, (Vec::new(), block));
        }
        self.metrics.comm_seconds += redist_cost;
        self.metrics.messages += self.grid().num_procs() as u64;
        self.record(CommKind::Redistribute, 0, self.grid().num_procs() as u64, redist_cost);
        self.observe_memory(0);
        Ok(())
    }

    /// Execute the step's kernel at full pin depth: a generalized Cannon
    /// contraction, an element-wise multiply, or a reduction.
    fn kernel(&mut self, step: &'a PlanStep, pins: &[Pin]) -> Result<(), SimError> {
        self.current_step = step.result_name.clone();
        // Redistribution of unfused operands happens once, before the
        // first kernel invocation (pins all at position 0).
        if pins.iter().all(|p| p.pos == 0) {
            for op in &step.operands {
                if !op.fusion.is_empty() || op.produced_dist == op.required_dist {
                    continue;
                }
                if op.is_leaf {
                    // Leaf blocks materialize from the input arrays on
                    // demand, so no stored data moves here — but leaving the
                    // pinned initial layout is real traffic that the plan
                    // paid for, and it must be charged to stay comparable.
                    let msgs = self.grid().num_procs() as u64;
                    self.metrics.comm_seconds += op.redist_cost;
                    self.metrics.messages += msgs;
                    self.record(CommKind::Redistribute, 0, msgs, op.redist_cost);
                } else {
                    self.redistribute(op.node, op.produced_dist, op.required_dist, op.redist_cost)?;
                }
            }
        }
        match step.pattern {
            Some(pat) => self.cannon_kernel(step, pat, pins),
            None => self.simple_kernel(step, pins),
        }
    }

    fn cannon_kernel(
        &mut self,
        step: &'a PlanStep,
        pat: CannonPattern,
        pins: &[Pin],
    ) -> Result<(), SimError> {
        let grid = self.grid();
        let q = num_steps(grid);
        // Divisibility of every distributed, unpinned dimension.
        let NodeKind::Contract { left, right, .. } = self.tree.node(step.node).kind else {
            return Err(SimError::Inconsistent("cannon kernel on non-contraction".into()));
        };
        let op_info = [
            (Operand::Left, left, step.operands[0].required_dist),
            (Operand::Right, right, step.operands[1].required_dist),
            (Operand::Result, step.node, step.result_dist),
        ];
        // Non-dividing extents are fine here: `myrange` gives every array
        // the same (uneven) block boundaries, so blocks stay conformant;
        // only *fused* loops (pins) need exact blocking, checked in
        // `nest`.

        // Gather each processor's step-0 ("aligned") blocks. Rotating
        // *inputs* fetch real data from their alignment source (one charged
        // round); the result's working blocks start at zero (accumulators),
        // so a rotating result pays no alignment — it pays one homing round
        // at the end instead, for the same q-message total as the model.
        let mut current: [Vec<Block>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (slot, (op, node, dist)) in op_info.iter().enumerate() {
            let travel = pat.travel_dim(*op);
            let mut max_bytes = 0u128;
            let is_result = matches!(op, Operand::Result);
            for rank in 0..grid.num_procs() {
                let coord = grid.coord(rank);
                let source = match travel {
                    None => coord,
                    Some(t) => alignment_source(coord, t, grid),
                };
                let block = if is_result {
                    let tensor = &self.tree.node(*node).tensor;
                    let ranges = self.block_ranges(tensor, *dist, source, pins);
                    Block::zeros(tensor.dims.clone(), ranges)
                } else {
                    self.operand_block(*node, *dist, source, pins)?
                };
                max_bytes = max_bytes.max(block.words() * 8);
                current[slot].push(block);
            }
            if let (Some(tr), false) = (travel, is_result) {
                let t = self.round_time(tr, max_bytes as f64);
                self.metrics.charge_round(max_bytes, t);
                self.record(CommKind::Align, max_bytes, 1, t);
            }
        }
        let buffer_words: u128 =
            current.iter().map(|v| v.iter().map(|b| b.words()).max().unwrap_or(0)).sum();
        self.observe_memory(buffer_words);

        // Without a rotation index the "Cannon" degenerates to one local
        // multiply (replicated summation dimension). A distributed K with
        // no rotation can never combine its partial sums — the pattern
        // enumerator excludes this; guard against it regardless.
        if pat.k.is_some() && pat.rotation_index().is_none() {
            return Err(SimError::Inconsistent(
                "distributed summation index without a rotation".into(),
            ));
        }
        // Dual guard: a rotating result with no distributed summation index
        // collects the same contribution at every ring position (q-fold
        // overcount); the enumerator excludes such patterns.
        if pat.travel_dim(Operand::Result).is_some() && pat.k.is_none() {
            return Err(SimError::Inconsistent(
                "rotating result with no distributed summation index".into(),
            ));
        }
        let rounds = if pat.rotation_index().is_some() { q } else { 1 };
        for t in 0..rounds {
            // Conformance assertions: shared dims must coincide everywhere.
            for (lb, rb) in current[0].iter().zip(&current[1]) {
                self.assert_conformant(lb, rb, step)?;
            }
            // Local multiply everywhere — the virtual processors are
            // independent within a round, so run them on real threads when
            // the work amortizes the spawn cost.
            let (lbl, rest) = current.split_at_mut(1);
            let (rbl, resbl) = rest.split_at_mut(1);
            let flops_per_rank = parallel_local_multiply(&lbl[0], &rbl[0], &mut resbl[0][..]);
            let per_proc_flops = flops_per_rank.iter().copied().max().unwrap_or(0);
            let total_flops: u128 = flops_per_rank.iter().sum();
            self.metrics.charge_compute(
                per_proc_flops,
                total_flops,
                self.cm.machine.flops_per_proc,
            );
            // Shift rotating blocks (all but the last round).
            if t + 1 < rounds {
                for (slot, (op, _, _)) in op_info.iter().enumerate() {
                    if let Some(travel) = pat.travel_dim(*op) {
                        self.shift_blocks(&mut current[slot], travel);
                    }
                }
            }
        }

        // Home the result blocks. When the result rotated, its blocks sit
        // one ring-position away from home: pay one homing round.
        let result_rotates = pat.travel_dim(Operand::Result).is_some();
        let mut homed: Vec<Option<Block>> = vec![None; grid.num_procs() as usize];
        let result_tensor = &self.tree.node(step.node).tensor;
        if result_rotates {
            // Match each traveled block back to a home processor by its
            // global ranges. A replicated grid dimension makes several
            // owners equivalent (their replicas are identical); fill the
            // first unfilled match.
            let mut max_bytes = 0u128;
            for block in current[2].drain(..) {
                let mut owner = None;
                for rank in 0..grid.num_procs() {
                    if homed[rank as usize].is_some() {
                        continue;
                    }
                    let coord = grid.coord(rank);
                    let want = self.block_ranges(result_tensor, step.result_dist, coord, pins);
                    if want == block.ranges {
                        owner = Some(rank as usize);
                        break;
                    }
                }
                let owner = owner.ok_or_else(|| {
                    SimError::Inconsistent("result block matches no home processor".into())
                })?;
                max_bytes = max_bytes.max(block.words() * 8);
                homed[owner] = Some(block);
            }
            let travel = pat.travel_dim(Operand::Result).expect("result rotates");
            let t = self.round_time(travel, max_bytes as f64);
            self.metrics.charge_round(max_bytes, t);
            self.record(CommKind::Home, max_bytes, 1, t);
        } else {
            // The result never moved: blocks are already home, by rank.
            for (rank, block) in current[2].drain(..).enumerate() {
                homed[rank] = Some(block);
            }
        }
        for (rank, block) in homed.into_iter().enumerate() {
            let block = block
                .ok_or_else(|| SimError::Inconsistent("processor missing result block".into()))?;
            // Accumulate into the stored (possibly wider) home block.
            let (_, stored) = self.store[rank]
                .get_mut(&step.node)
                .ok_or_else(|| SimError::Inconsistent("result home not allocated".into()))?;
            stored.accumulate(&block);
        }
        Ok(())
    }

    /// Check Cannon conformance: every index shared between the two
    /// operand blocks covers identical global ranges.
    fn assert_conformant(&self, l: &Block, r: &Block, step: &PlanStep) -> Result<(), SimError> {
        for (dl, rl) in l.dims.iter().zip(&l.ranges) {
            if let Some(p) = r.dim_pos(*dl) {
                if &r.ranges[p] != rl {
                    return Err(SimError::Inconsistent(format!(
                        "step {}: misaligned blocks on `{}`: {:?} vs {:?}",
                        step.result_name,
                        self.tree.space.name(*dl),
                        rl,
                        r.ranges[p]
                    )));
                }
            }
        }
        Ok(())
    }

    /// Cyclically shift a per-rank vector of blocks one position along
    /// `travel` (every processor sends to `rotation_target`).
    fn shift_blocks(&mut self, blocks: &mut [Block], travel: GridDim) {
        let grid = self.grid();
        let mut next: Vec<Option<Block>> = vec![None; blocks.len()];
        let mut max_bytes = 0u128;
        for rank in 0..grid.num_procs() {
            let coord = grid.coord(rank);
            let target = rotation_target(coord, travel, grid);
            let block = std::mem::replace(&mut blocks[rank as usize], Block::zeros(vec![], vec![]));
            max_bytes = max_bytes.max(block.words() * 8);
            next[grid.rank(target) as usize] = Some(block);
        }
        for (slot, b) in next.into_iter().enumerate() {
            blocks[slot] = b.expect("cyclic shift is a permutation");
        }
        let t = self.round_time(travel, max_bytes as f64);
        self.metrics.charge_round(max_bytes, t);
        self.record(CommKind::Shift, max_bytes, 1, t);
    }

    /// Reduce / element-wise kernels (plan steps without a Cannon pattern).
    fn simple_kernel(&mut self, step: &'a PlanStep, pins: &[Pin]) -> Result<(), SimError> {
        let grid = self.grid();
        match &self.tree.node(step.node).kind {
            NodeKind::Reduce { sum, child } => {
                let op = &step.operands[0];
                let mut per_proc = 0u128;
                let mut total = 0u128;
                for rank in 0..grid.num_procs() {
                    let coord = grid.coord(rank);
                    let cb = self.operand_block(*child, op.required_dist, coord, pins)?;
                    let (_, out) = self.store[rank as usize]
                        .get_mut(&step.node)
                        .expect("result allocated above");
                    let flops = out.combine(&[&cb], |a, v| a + v);
                    per_proc = per_proc.max(flops);
                    total += flops;
                }
                self.metrics.charge_compute(per_proc, total, self.cm.machine.flops_per_proc);
                // If the summed dimension was distributed, combine the
                // partial sums across that grid dimension (allreduce),
                // narrowed to this invocation's slice — earlier slices were
                // already combined and must not be summed again.
                if let Some(d) = op.required_dist.position_of(*sum) {
                    self.allreduce_along(step, d, pins)?;
                    // Charge the model's reduce cost as recorded in the
                    // plan. The plan prices the whole fused loop nest, so
                    // each invocation carries its share.
                    let invocations: u64 = step
                        .surrounding
                        .iter()
                        .map(|idx| match self.placement_at(step, idx) {
                            None => self.extent(idx),
                            Some(g) => self.extent(idx) / u64::from(grid.extent(g)),
                        })
                        .product();
                    let share = step.result_rotate_cost / invocations as f64;
                    self.metrics.comm_seconds += share;
                    self.metrics.messages += u64::from(grid.extent(d));
                    self.record(CommKind::Reduce, 0, u64::from(grid.extent(d)), share);
                }
                Ok(())
            }
            NodeKind::Contract { sum, left, right } => {
                // Aligned local step: a pure element-wise multiply (1 flop
                // per point) when nothing is summed and the shapes coincide,
                // otherwise a batched local contraction (2 flops per point;
                // shared non-summed indices keep operands aligned; summed
                // indices are never distributed on this path, so no
                // communication is needed).
                let elementwise = sum.is_empty()
                    && self.tree.node(*left).tensor.dim_set()
                        == self.tree.node(step.node).tensor.dim_set()
                    && self.tree.node(*right).tensor.dim_set()
                        == self.tree.node(step.node).tensor.dim_set();
                let flops_per_point = if elementwise { 1 } else { 2 };
                let mut per_proc = 0u128;
                let mut total = 0u128;
                for rank in 0..grid.num_procs() {
                    let coord = grid.coord(rank);
                    let lb =
                        self.operand_block(*left, step.operands[0].required_dist, coord, pins)?;
                    let rb =
                        self.operand_block(*right, step.operands[1].required_dist, coord, pins)?;
                    let (_, out) = self.store[rank as usize]
                        .get_mut(&step.node)
                        .expect("result allocated above");
                    let flops = flops_per_point * out.combine(&[&lb, &rb], |a, v| a + v);
                    per_proc = per_proc.max(flops);
                    total += flops;
                }
                self.metrics.charge_compute(per_proc, total, self.cm.machine.flops_per_proc);
                Ok(())
            }
            NodeKind::Leaf => Err(SimError::Inconsistent("kernel on a leaf".into())),
        }
    }

    /// Sum the current invocation's result slice across one grid dimension
    /// and replicate the total (the result distribution has `None` in that
    /// position). Only the slice selected by `pins` participates: inside a
    /// fused loop the rest of the stored block holds slices of *earlier*
    /// invocations that were already combined — summing them again would
    /// multiply them by the line length.
    fn allreduce_along(
        &mut self,
        step: &PlanStep,
        d: GridDim,
        pins: &[Pin],
    ) -> Result<(), SimError> {
        let grid = self.grid();
        let node = step.node;
        let tensor = self.tree.node(node).tensor.clone();
        let lines: Vec<Vec<u32>> = match d {
            GridDim::Dim1 => (0..grid.dim2)
                .map(|z2| (0..grid.dim1).map(|z1| grid.rank(ProcCoord { z1, z2 })).collect())
                .collect(),
            GridDim::Dim2 => (0..grid.dim1)
                .map(|z1| (0..grid.dim2).map(|z2| grid.rank(ProcCoord { z1, z2 })).collect())
                .collect(),
        };
        for line in lines {
            // Sum the line's current slices…
            let mut total: Option<Block> = None;
            for &rank in &line {
                let coord = grid.coord(rank);
                let ranges = self.block_ranges(&tensor, step.result_dist, coord, pins);
                let (_, stored) = &self.store[rank as usize][&node];
                let b = stored.sub_block(ranges);
                match &mut total {
                    None => total = Some(b),
                    Some(t) => {
                        if t.ranges != b.ranges {
                            return Err(SimError::Inconsistent(
                                "allreduce blocks disagree on ranges".into(),
                            ));
                        }
                        t.combine(&[&b], |a, v| a + v);
                    }
                }
            }
            // …and replicate the combined slice back into the home blocks.
            let total = total.expect("nprocs > 0: at least one contribution");
            for &rank in &line {
                let entry =
                    self.store[rank as usize].get_mut(&node).expect("result allocated above");
                entry.1.combine(&[&total], |_, v| v);
            }
        }
        Ok(())
    }
}

/// One processor's local multiply, `result += left × right`, at 2 flops per
/// point.
fn local_multiply(left: &Block, right: &Block, result: &mut Block) -> u128 {
    2 * result.combine(&[left, right], |a, v| a + v)
}

/// Run every virtual processor's local multiply for one Cannon round.
/// Above a work threshold the ranks are executed on OS threads via
/// `std::thread::scope` (the kernels are data-parallel by construction);
/// below it the spawn overhead would dominate and a plain loop wins.
fn parallel_local_multiply(left: &[Block], right: &[Block], results: &mut [Block]) -> Vec<u128> {
    const PARALLEL_THRESHOLD_WORDS: u128 = 1 << 16;
    let work: u128 = results.iter().map(Block::words).sum();
    if work < PARALLEL_THRESHOLD_WORDS {
        return results
            .iter_mut()
            .enumerate()
            .map(|(rank, res)| local_multiply(&left[rank], &right[rank], res))
            .collect();
    }
    let flops = std::sync::Mutex::new(vec![0u128; results.len()]);
    std::thread::scope(|scope| {
        let threads = std::thread::available_parallelism().map_or(4, |n| n.get()).max(1);
        let chunk = results.len().div_ceil(threads);
        for (ci, res_chunk) in results.chunks_mut(chunk).enumerate() {
            let flops = &flops;
            scope.spawn(move || {
                for (off, res) in res_chunk.iter_mut().enumerate() {
                    let rank = ci * chunk + off;
                    let f = local_multiply(&left[rank], &right[rank], res);
                    flops.lock().expect("flops mutex poisoned")[rank] = f;
                }
            });
        }
    });
    flops.into_inner().expect("flops mutex poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(result: &Block, reference: &Block) -> SimReport {
        let (max_abs_err, max_abs_ref) = compare(result, reference);
        SimReport { metrics: Metrics::default(), max_abs_err, max_abs_ref, result_words: 0 }
    }

    #[test]
    fn verdict_scales_with_the_result_magnitude() {
        let mut space = tce_expr::IndexSpace::new();
        let i = space.declare("i", 64);
        let j = space.declare("j", 64);
        let mut reference = Block::random(&Tensor::new("R", vec![i, j]), &space, 7);
        for v in &mut reference.data {
            *v *= 4e7;
        }
        // Rounding-level error on a large result: relative 1e-15, yet
        // above the absolute tolerance.
        let mut rounded = reference.clone();
        for v in &mut rounded.data {
            *v *= 1.0 + 1e-15;
        }
        let ok = report(&rounded, &reference);
        assert!(ok.max_abs_err > VERIFY_ABS_TOL, "{}", ok.max_abs_err);
        assert!(ok.verified(), "{ok:?}");
        // One element off by 1e-6 relative fails (the largest, so the
        // relative perturbation is also 1e-6 of the result's scale).
        let mut wrong = reference.clone();
        let top = (0..wrong.data.len())
            .max_by(|&a, &b| wrong.data[a].abs().total_cmp(&wrong.data[b].abs()))
            .unwrap();
        wrong.data[top] *= 1.0 + 1e-6;
        assert!(!report(&wrong, &reference).verified());
        // Below magnitude 1 the tolerance stays absolute.
        let mut small = Block::full(&Tensor::new("s", vec![i]), &space);
        small.data.fill(0.5);
        let mut off = small.clone();
        off.data[2] += 2e-9;
        assert!(!report(&off, &small).verified());
        assert!(report(&small, &small).verified());
    }
}
