//! Issue counters: what the kernel made each pipeline do.

use cell_core::{OpClass, OpProfile};

/// Tally of dynamically issued SPU operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpuCounters {
    /// Even-pipeline (arithmetic) 128-bit issues.
    pub even: u64,
    /// Odd-pipeline (load/store/shuffle/branch-unit) 128-bit issues.
    pub odd: u64,
    /// Scalar operations executed without SIMDization (rotate + extract +
    /// op + insert on real hardware).
    pub scalar: u64,
    /// Hinted / well-predicted branches.
    pub branches: u64,
    /// Unhinted, data-dependent branches.
    pub branches_hard: u64,
}

impl SpuCounters {
    /// Total issues of every kind.
    pub fn total(&self) -> u64 {
        self.even + self.odd + self.scalar + self.branches + self.branches_hard
    }

    /// Difference since an earlier snapshot (for per-slice accounting).
    pub fn since(&self, earlier: &SpuCounters) -> SpuCounters {
        SpuCounters {
            even: self.even - earlier.even,
            odd: self.odd - earlier.odd,
            scalar: self.scalar - earlier.scalar,
            branches: self.branches - earlier.branches,
            branches_hard: self.branches_hard - earlier.branches_hard,
        }
    }

    /// Convert to the cross-machine operation-profile vocabulary.
    pub fn to_profile(&self) -> OpProfile {
        let mut p = OpProfile::new();
        p.record(OpClass::SimdEven, self.even);
        p.record(OpClass::SimdOdd, self.odd);
        p.record(OpClass::ScalarInVector, self.scalar);
        p.record(OpClass::Branch, self.branches);
        p.record(OpClass::BranchHard, self.branches_hard);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_counts_every_kind() {
        let c = SpuCounters {
            even: 11,
            odd: 5,
            scalar: 2,
            branches: 4,
            branches_hard: 3,
        };
        assert_eq!(c.total(), 11 + 5 + 2 + 4 + 3);
    }

    #[test]
    fn since_gives_delta() {
        let early = SpuCounters {
            even: 10,
            odd: 4,
            ..Default::default()
        };
        let late = SpuCounters {
            even: 25,
            odd: 9,
            branches: 2,
            ..Default::default()
        };
        let d = late.since(&early);
        assert_eq!(d.even, 15);
        assert_eq!(d.odd, 5);
        assert_eq!(d.branches, 2);
    }

    #[test]
    fn profile_mapping() {
        let c = SpuCounters {
            even: 7,
            odd: 3,
            scalar: 2,
            branches: 1,
            branches_hard: 4,
        };
        let p = c.to_profile();
        assert_eq!(p.count(OpClass::SimdEven), 7);
        assert_eq!(p.count(OpClass::SimdOdd), 3);
        assert_eq!(p.count(OpClass::ScalarInVector), 2);
        assert_eq!(p.count(OpClass::Branch), 1);
        assert_eq!(p.count(OpClass::BranchHard), 4);
    }
}
