//! First-name attributes for the people-search experiment.
//!
//! The paper's "David problem" (§5.1): find anyone named David within 3
//! hops of a given user. David must be a *popular* first name for the
//! experiment to be meaningful — popular names defeat name-indexing
//! strategies, which is the paper's argument for exploration instead of
//! indexes. The distribution below gives David roughly a 1.5% share,
//! matching its rank among US male first names.

use rand::Rng;
use rand::RngExt;

/// Name pool with rough real-world frequencies (weights sum to 1000).
const NAMES: &[(&str, u32)] = &[
    ("James", 33),
    ("Mary", 32),
    ("John", 31),
    ("Patricia", 25),
    ("Robert", 25),
    ("Jennifer", 22),
    ("Michael", 21),
    ("William", 20),
    ("Linda", 19),
    ("David", 15),
    ("Elizabeth", 15),
    ("Richard", 14),
    ("Barbara", 14),
    ("Susan", 13),
    ("Joseph", 13),
    ("Thomas", 12),
    ("Jessica", 12),
    ("Charles", 11),
    ("Sarah", 11),
    ("Christopher", 10),
    ("Karen", 10),
    ("Daniel", 10),
    ("Nancy", 9),
    ("Matthew", 9),
    ("Lisa", 9),
    ("Anthony", 8),
    ("Betty", 8),
    ("Donald", 8),
    ("Margaret", 8),
    ("Mark", 8),
    ("Sandra", 7),
    ("Paul", 7),
    ("Ashley", 7),
    ("Steven", 7),
    ("Kimberly", 6),
    ("Andrew", 6),
    ("Emily", 6),
    ("Kenneth", 6),
    ("Donna", 6),
    ("Joshua", 6),
    ("Michelle", 5),
    ("Kevin", 5),
    ("Carol", 5),
    ("Brian", 5),
    ("Amanda", 5),
    ("George", 5),
    ("Melissa", 5),
    ("Edward", 4),
    ("Deborah", 4),
    ("Ronald", 4),
    // Long tail bucket: unique-ish names.
    ("Other", 423),
];

/// Sample a first name for person `id` (deterministic per `(seed, id)`).
pub fn name_for(seed: u64, id: u64) -> String {
    let mut rng = crate::rng(seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let total: u32 = NAMES.iter().map(|(_, w)| w).sum();
    let mut pick = rng.random_range(0..total);
    for (name, w) in NAMES {
        if pick < *w {
            if *name == "Other" {
                return format!("Person{:x}", rng.next_u64() & 0xFFFFFF);
            }
            return (*name).to_string();
        }
        pick -= w;
    }
    unreachable!("weights exhausted")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed_and_id() {
        assert_eq!(name_for(1, 42), name_for(1, 42));
    }

    #[test]
    fn david_share_is_about_1_5_percent() {
        let n = 50_000u64;
        let davids = (0..n).filter(|&i| name_for(7, i) == "David").count();
        let share = davids as f64 / n as f64;
        let total: u32 = NAMES.iter().map(|(_, w)| w).sum();
        let david = NAMES.iter().find(|(n, _)| *n == "David").unwrap().1;
        let expect = david as f64 / total as f64;
        assert!(
            (share - expect).abs() < 0.005,
            "David share {share:.4}, expected ~{expect:.4}"
        );
        assert!(
            share > 0.008,
            "David must stay a popular name for the experiment"
        );
    }

    #[test]
    fn other_bucket_produces_unique_names() {
        let unique: std::collections::HashSet<String> = (0..1000u64)
            .map(|i| name_for(3, i))
            .filter(|n| n.starts_with("Person"))
            .collect();
        assert!(unique.len() > 300, "long tail too small: {}", unique.len());
    }
}
