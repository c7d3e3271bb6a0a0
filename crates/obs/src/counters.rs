//! A small named-counter bag that travels with a result.

use std::fmt;

/// Named monotonic counters, owned by the measurement site (a DP run, a
/// simulation) rather than a global registry — so concurrent runs can't
//  bleed into each other and a result carries exactly its own numbers.
///
/// Backed by a sorted `Vec`: the workspace uses a handful of counters per
/// run, where a vector beats a hash map on both footprint and iteration
/// order (reports are deterministic without sorting at print time).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    entries: Vec<(&'static str, u64)>,
}

impl Counters {
    /// Empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to `name`, creating it at zero first if absent.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        match self.entries.binary_search_by_key(&name, |&(n, _)| n) {
            Ok(i) => self.entries[i].1 += delta,
            Err(i) => self.entries.insert(i, (name, delta)),
        }
    }

    /// Overwrite `name` with `value`.
    pub fn set(&mut self, name: &'static str, value: u64) {
        match self.entries.binary_search_by_key(&name, |&(n, _)| n) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (name, value)),
        }
    }

    /// Current value of `name` (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.entries
            .binary_search_by_key(&name, |&(n, _)| n)
            .map(|i| self.entries[i].1)
            .unwrap_or(0)
    }

    /// All counters in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.entries.iter().copied()
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no counter has been touched.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Emit every counter's current value to the installed sink (no-op when
    /// observability is disabled).
    pub fn sample_all(&self) {
        if !crate::enabled() {
            return;
        }
        for (name, value) in self.iter() {
            crate::counter_sample(name, value);
        }
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, value)) in self.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{name:<22} {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_set_iterate() {
        let mut c = Counters::new();
        assert_eq!(c.get("x"), 0);
        c.add("b", 2);
        c.add("a", 1);
        c.add("b", 3);
        c.set("c", 10);
        assert_eq!(c.get("a"), 1);
        assert_eq!(c.get("b"), 5);
        assert_eq!(c.get("c"), 10);
        let names: Vec<_> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b", "c"], "iteration is name-ordered");
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn display_is_aligned_lines() {
        let mut c = Counters::new();
        c.add("dp.candidates", 12);
        c.add("dp.frontier", 3);
        let s = c.to_string();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("dp.candidates"));
    }
}
