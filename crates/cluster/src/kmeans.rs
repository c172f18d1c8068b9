//! K-means over user profiles under a PCC-derived similarity (§IV-C).
//!
//! The paper clusters users so that (a) ratings can be smoothed within
//! each cluster and (b) the online phase can restrict its like-minded-user
//! search to the most promising clusters. Distance is *similarity*, not
//! Euclidean: a user joins the cluster whose centroid its ratings
//! correlate with most strongly (Eq. 6 applied to user-vs-centroid).
//!
//! Cost per iteration: the assignment step lays the `k` centroids out in
//! lane groups of 8, 16 or 32 ([`CentroidLanes`]) and walks each user's
//! row once per group, scoring every centroid of the group in that one
//! pass. So an iteration reads the ratings ⌈k / 32⌉ times (once for
//! `k ≤ 32`) instead of `k` times, with `width` lanes of work per rating.
//! The update step reads every rating once more to rebuild the centroids.

use cf_matrix::{RatingMatrix, UserId};
use cf_parallel::par_map;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How initial centroids are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KMeansInit {
    /// `k` distinct users drawn uniformly (seeded). The paper doesn't
    /// specify its initialization; this is the classic default.
    #[default]
    Random,
    /// K-means++-style spreading adapted to the similarity metric: each
    /// next seed is the user *least similar* to its closest existing
    /// seed (farthest-first under 1−PCC). Deterministic given the seed
    /// of the first pick; tends to cover all taste groups even when
    /// `k` is small.
    PlusPlus,
}

/// Configuration for [`KMeans::fit`].
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters (`C` in the paper; default 30).
    pub k: usize,
    /// Iteration cap; K-means on MovieLens-scale data converges in a
    /// handful of rounds.
    pub max_iterations: usize,
    /// RNG seed for centroid initialization — same seed, same clustering.
    pub seed: u64,
    /// Centroid initialization strategy.
    pub init: KMeansInit,
    /// Worker threads (`None` = auto).
    pub threads: Option<usize>,
    /// Centroid-drift convergence tolerance: the fit also stops once no
    /// centroid mean moved by more than `tol` between rounds, even if a
    /// few boundary users are still flip-flopping between equidistant
    /// clusters (exact assignment stability always converges too).
    pub tol: f64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            k: 30,
            max_iterations: 20,
            seed: 42,
            init: KMeansInit::Random,
            threads: None,
            tol: 1e-9,
        }
    }
}

/// A centroid: per-item average rating over the cluster's members, defined
/// only for items at least one member rated.
#[derive(Debug, Clone)]
struct Centroid {
    /// Dense per-item mean rating, `NaN` where undefined.
    values: Vec<f64>,
    /// Mean of the defined values (for PCC centering).
    mean: f64,
}

impl Centroid {
    fn from_members(m: &RatingMatrix, members: &[UserId]) -> Self {
        let q = m.num_items();
        let mut sum = vec![0.0f64; q];
        let mut count = vec![0u32; q];
        for &u in members {
            for (i, r) in m.user_ratings(u) {
                sum[i.index()] += r;
                count[i.index()] += 1;
            }
        }
        let mut total = 0.0;
        let mut defined = 0usize;
        let values: Vec<f64> = (0..q)
            .map(|i| {
                if count[i] > 0 {
                    let v = sum[i] / count[i] as f64;
                    total += v;
                    defined += 1;
                    v
                } else {
                    f64::NAN
                }
            })
            .collect();
        let mean = if defined > 0 {
            total / defined as f64
        } else {
            0.0
        };
        Self { values, mean }
    }

    fn from_single_user(m: &RatingMatrix, u: UserId) -> Self {
        let q = m.num_items();
        let mut values = vec![f64::NAN; q];
        for (i, r) in m.user_ratings(u) {
            values[i.index()] = r;
        }
        Self {
            values,
            mean: m.user_mean(u),
        }
    }
}

/// Lane widths of [`CentroidLanes`]: the smallest that covers `k`, or
/// several groups of the widest (32).
const LANE_WIDTHS: [usize; 3] = [8, 16, 32];

/// The centroids of one assignment step, laid out for [`lane_kernel`]:
/// item-major in groups of `width` lanes, one lane per centroid. Item
/// `i` of a group holds `width` centered values `c_i − c̄` (0 where the
/// centroid is undefined), then `width` weights (1 where defined, 0
/// where not). Lanes past `k` are undefined everywhere.
struct CentroidLanes {
    width: usize,
    k: usize,
    /// Values per group: `num_items · 2 · width`.
    group_len: usize,
    cells: Vec<f64>,
}

impl CentroidLanes {
    fn new(centroids: &[Centroid], num_items: usize) -> Self {
        let k = centroids.len();
        let width = LANE_WIDTHS
            .into_iter()
            .find(|&w| w >= k)
            .unwrap_or(LANE_WIDTHS[2]);
        let group_len = num_items * 2 * width;
        let mut cells = vec![0.0; k.div_ceil(width) * group_len];
        for (c, centroid) in centroids.iter().enumerate() {
            let group = &mut cells[(c / width) * group_len..][..group_len];
            let lane = c % width;
            for (cell, &v) in group.chunks_exact_mut(2 * width).zip(&centroid.values) {
                if !v.is_nan() {
                    cell[lane] = v - centroid.mean;
                    cell[width + lane] = 1.0;
                }
            }
        }
        Self {
            width,
            k,
            group_len,
            cells,
        }
    }

    /// Eq. 6 similarity of `u` to every centroid of lane group `g`, in
    /// the first `width` entries, from one walk of `u`'s row.
    fn group_similarities(&self, m: &RatingMatrix, u: UserId, g: usize) -> [f64; 32] {
        let group = &self.cells[g * self.group_len..][..self.group_len];
        let mut sims = [0.0; 32];
        match self.width {
            8 => sims[..8].copy_from_slice(&lane_kernel::<8>(group, m, u)),
            16 => sims[..16].copy_from_slice(&lane_kernel::<16>(group, m, u)),
            _ => sims = lane_kernel::<32>(group, m, u),
        }
        sims
    }

    /// The centroid most similar to `u`; ties go to the lowest index.
    fn nearest(&self, m: &RatingMatrix, u: UserId) -> usize {
        let mut best = 0usize;
        let mut best_sim = f64::NEG_INFINITY;
        for g in 0..self.k.div_ceil(self.width) {
            let sims = self.group_similarities(m, u, g);
            let first = g * self.width;
            let lanes = (self.k - first).min(self.width);
            for (lane, &s) in sims[..lanes].iter().enumerate() {
                if s > best_sim {
                    best_sim = s;
                    best = first + lane;
                }
            }
        }
        best
    }

    /// Eq. 6 similarity of `u` to centroid `c`.
    fn similarity(&self, m: &RatingMatrix, u: UserId, c: usize) -> f64 {
        self.group_similarities(m, u, c / self.width)[c % self.width]
    }
}

/// PCC between `u`'s profile and each of the `W` centroids of one lane
/// group (`group`, laid out as [`CentroidLanes`] describes) over the items
/// both define: Eq. 6 with the centroid standing in for the second user.
///
/// One pass over the row serves all `W` lanes. A defined cell's weight 1
/// multiplies exactly. An undefined cell has centered value 0 and weight
/// 0, so it adds ±0 to the dot product and +0 to the other sums. A sum
/// that starts at +0 never becomes −0 in round-to-nearest, so adding ±0
/// changes nothing, and every lane gets bit for bit the sums of a loop
/// that skips the undefined cells. Plain mul and add keep it that way
/// (no `mul_add`).
fn lane_kernel<const W: usize>(group: &[f64], m: &RatingMatrix, u: UserId) -> [f64; W] {
    let (items, vals) = m.user_row(u);
    let user_mean = m.user_mean(u);
    let mut dot = [0.0f64; W];
    let mut nu = [0.0f64; W];
    let mut nc = [0.0f64; W];
    let mut n = [0.0f64; W];
    for (&i, &r) in items.iter().zip(vals) {
        let du = r - user_mean;
        let du2 = du * du;
        let (d, w) = group[i.index() * 2 * W..][..2 * W].split_at(W);
        for l in 0..W {
            dot[l] += du * d[l];
            nu[l] += du2 * w[l];
            nc[l] += d[l] * d[l];
            n[l] += w[l];
        }
    }
    finish(&dot, &nu, &nc, &n)
}

/// The quotient of Eq. 6 per lane, 0 where fewer than two items are
/// shared or either side has no spread. Kept out of line: inlined, its
/// per-lane shape steered how the row loop above was vectorized, and at
/// `W = 8` that loop ran about three times slower.
#[inline(never)]
fn finish<const W: usize>(dot: &[f64; W], nu: &[f64; W], nc: &[f64; W], n: &[f64; W]) -> [f64; W] {
    std::array::from_fn(|l| {
        if n[l] < 2.0 || nu[l] <= 0.0 || nc[l] <= 0.0 {
            0.0
        } else {
            (dot[l] / (nu[l].sqrt() * nc[l].sqrt())).clamp(-1.0, 1.0)
        }
    })
}

/// The result of clustering: a cluster id per user plus member lists.
#[derive(Debug, Clone)]
pub struct ClusterAssignment {
    /// `assignment[u]` = cluster index of user `u`.
    assignment: Vec<u32>,
    /// `members[c]` = users in cluster `c`, ascending user id.
    members: Vec<Vec<UserId>>,
    /// Iterations actually run before convergence (or the cap).
    pub iterations: usize,
    /// Whether assignments reached a fixed point within the cap.
    pub converged: bool,
}

impl ClusterAssignment {
    /// Reassembles an assignment from a per-user cluster-id vector — the
    /// deserialization path for model persistence. Panics if any id is
    /// `>= k` (a corrupt assignment must not silently mis-index).
    pub fn from_assignment(
        assignment: Vec<u32>,
        k: usize,
        iterations: usize,
        converged: bool,
    ) -> Self {
        assert!(k > 0, "k must be positive");
        let mut members: Vec<Vec<UserId>> = vec![Vec::new(); k];
        for (ui, &c) in assignment.iter().enumerate() {
            assert!(
                (c as usize) < k,
                "user {ui} assigned to cluster {c} >= k={k}"
            );
            members[c as usize].push(UserId::from(ui));
        }
        Self {
            assignment,
            members,
            iterations,
            converged,
        }
    }

    /// The raw per-user cluster-id vector (serialization counterpart of
    /// [`Self::from_assignment`]).
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.members.len()
    }

    /// The cluster user `u` belongs to.
    #[inline]
    pub fn cluster_of(&self, u: UserId) -> usize {
        self.assignment[u.index()] as usize
    }

    /// Members of cluster `c`, ascending user id.
    #[inline]
    pub fn members(&self, c: usize) -> &[UserId] {
        &self.members[c]
    }

    /// Sizes of all clusters.
    pub fn sizes(&self) -> Vec<usize> {
        self.members.iter().map(Vec::len).collect()
    }
}

/// K-means engine. Construct via [`KMeans::fit`].
pub struct KMeans;

impl KMeans {
    /// Clusters all users of `m` that have at least one rating. Users with
    /// empty profiles are deterministically spread round-robin across
    /// clusters (they carry no signal either way; leaving them out would
    /// make downstream indexing partial).
    ///
    /// Each iteration walks every user row once per lane group of
    /// centroids (one group up to `k = 32`), not once per centroid. The
    /// similarities, ties, repairs and stopping rounds are bit for bit
    /// those of a pairwise Eq. 6 loop that skips undefined centroid
    /// cells (`tests/proptests.rs` holds that loop as the reference).
    pub fn fit(m: &RatingMatrix, config: &KMeansConfig) -> ClusterAssignment {
        cf_obs::time_scope!("offline.kmeans.fit_ns");
        let p = m.num_users();
        assert!(config.k > 0, "k must be positive");
        let k = config.k.min(p.max(1));
        let threads = cf_parallel::effective_threads(config.threads);

        // Seed centroids with k distinct users that have non-empty
        // profiles, chosen reproducibly.
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let mut active: Vec<UserId> = m.users().filter(|&u| m.user_count(u) > 0).collect();
        active.shuffle(&mut rng);
        let seeds: Vec<UserId> = match config.init {
            KMeansInit::Random => active.iter().copied().take(k).collect(),
            KMeansInit::PlusPlus => plus_plus_seeds(m, &active, k, threads),
        };
        let k = seeds.len().max(1);
        let mut centroids: Vec<Centroid> = seeds
            .iter()
            .map(|&u| Centroid::from_single_user(m, u))
            .collect();
        if centroids.is_empty() {
            // Degenerate matrix (no active users at all).
            centroids.push(Centroid {
                values: vec![f64::NAN; m.num_items()],
                mean: 0.0,
            });
        }

        let mut assignment: Vec<u32> = (0..p).map(|u| (u % k) as u32).collect();
        let mut iterations = 0;
        let mut converged = false;

        for iter in 0..config.max_iterations {
            let iter_start = std::time::Instant::now();
            iterations = iter + 1;
            // Assignment step (parallel over users). Ties break toward the
            // lowest cluster index; empty profiles keep the round-robin slot.
            let lanes = CentroidLanes::new(&centroids, m.num_items());
            let next: Vec<u32> = par_map(p, threads, |ui| {
                let u = UserId::from(ui);
                if m.user_count(u) == 0 {
                    return (ui % k) as u32;
                }
                lanes.nearest(m, u) as u32
            });

            let changed = next != assignment;
            assignment = next;
            if !changed {
                cf_obs::histogram!("offline.kmeans.iter_ns").record_duration(iter_start.elapsed());
                converged = true;
                break;
            }

            // Update step: recompute centroids from members; repair empty
            // clusters by stealing the worst-fitting user of the largest
            // cluster so k stays constant.
            let mut members: Vec<Vec<UserId>> = vec![Vec::new(); k];
            for (ui, &c) in assignment.iter().enumerate() {
                members[c as usize].push(UserId::from(ui));
            }
            for c in 0..k {
                if members[c].is_empty() {
                    let donor = (0..k).max_by_key(|&d| members[d].len()).expect("k >= 1");
                    if members[donor].len() > 1 {
                        // The first of equally bad members leaves.
                        let (worst, _) = members[donor]
                            .iter()
                            .map(|&u| (u, lanes.similarity(m, u, donor)))
                            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("similarities are finite"))
                            .expect("donor non-empty");
                        members[donor].retain(|&u| u != worst);
                        members[c].push(worst);
                        assignment[worst.index()] = c as u32;
                    }
                }
            }
            let prev_means: Vec<f64> = centroids.iter().map(|c| c.mean).collect();
            centroids = par_map(k, threads, |c| Centroid::from_members(m, &members[c]));
            cf_obs::histogram!("offline.kmeans.iter_ns").record_duration(iter_start.elapsed());
            // Tolerance-based convergence: when every centroid mean is
            // numerically stationary the clustering has settled even if
            // boundary ties keep a user oscillating. NaN drift (a still-
            // empty centroid) compares false and keeps iterating.
            let drift = centroids
                .iter()
                .zip(&prev_means)
                .map(|(c, &prev)| (c.mean - prev).abs())
                .fold(0.0_f64, f64::max);
            if drift <= config.tol {
                converged = true;
                break;
            }
        }

        cf_obs::histogram!("offline.kmeans.iterations").record(iterations as u64);
        if converged {
            cf_obs::counter!("offline.kmeans.converged").inc();
        } else {
            cf_obs::counter!("offline.kmeans.hit_iteration_cap").inc();
        }

        let mut members: Vec<Vec<UserId>> = vec![Vec::new(); k];
        for (ui, &c) in assignment.iter().enumerate() {
            members[c as usize].push(UserId::from(ui));
        }

        ClusterAssignment {
            assignment,
            members,
            iterations,
            converged,
        }
    }
}

/// Farthest-first seeding under the 1−PCC "distance": the first seed is
/// the (shuffled) first active user, each next seed maximizes the
/// distance to its nearest already-chosen seed.
fn plus_plus_seeds(
    m: &RatingMatrix,
    shuffled_active: &[UserId],
    k: usize,
    threads: usize,
) -> Vec<UserId> {
    let Some(&first) = shuffled_active.first() else {
        return Vec::new();
    };
    let mut seeds = vec![first];
    // min_dist[idx] = distance of shuffled_active[idx] to nearest seed
    let mut min_dist: Vec<f64> = par_map(shuffled_active.len(), threads, |idx| {
        1.0 - cf_similarity::user_pcc(m, shuffled_active[idx], first)
    });
    while seeds.len() < k.min(shuffled_active.len()) {
        let (best_idx, _) = min_dist
            .iter()
            .enumerate()
            .filter(|&(idx, _)| !seeds.contains(&shuffled_active[idx]))
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("distances are finite"))
            .expect("candidates remain");
        let chosen = shuffled_active[best_idx];
        seeds.push(chosen);
        let updates: Vec<f64> = par_map(shuffled_active.len(), threads, |idx| {
            1.0 - cf_similarity::user_pcc(m, shuffled_active[idx], chosen)
        });
        for (d, u) in min_dist.iter_mut().zip(updates) {
            if u < *d {
                *d = u;
            }
        }
    }
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_matrix::{ItemId, MatrixBuilder};

    /// Two obvious taste groups: users 0–3 love items 0–2 and hate 3–5;
    /// users 4–7 the reverse.
    fn two_blocks() -> RatingMatrix {
        let mut b = MatrixBuilder::new();
        for u in 0..8u32 {
            let loves_low = u < 4;
            for i in 0..6u32 {
                let hi = (5 + (u % 2)) as f64 - 1.0; // 4 or 5
                let lo = 1.0 + (u % 2) as f64; // 1 or 2
                let r = if (i < 3) == loves_low { hi } else { lo };
                b.push(UserId::new(u), ItemId::new(i), r);
            }
        }
        b.build().unwrap()
    }

    /// Eq. 6 between `u` and one centroid, one pair at a time: the
    /// undefined cells are skipped as the row is walked in order.
    /// [`lane_kernel`] must match it bit for bit.
    fn reference_similarity(centroid: &Centroid, m: &RatingMatrix, u: UserId) -> f64 {
        let user_mean = m.user_mean(u);
        let (mut dot, mut nu, mut nc, mut n) = (0.0, 0.0, 0.0, 0usize);
        for (i, r) in m.user_ratings(u) {
            let c = centroid.values[i.index()];
            if c.is_nan() {
                continue;
            }
            let du = r - user_mean;
            let dc = c - centroid.mean;
            dot += du * dc;
            nu += du * du;
            nc += dc * dc;
            n += 1;
        }
        if n < 2 || nu <= 0.0 || nc <= 0.0 {
            return 0.0;
        }
        (dot / (nu.sqrt() * nc.sqrt())).clamp(-1.0, 1.0)
    }

    /// 70 users over 40 items with half-point ratings: users 0–2 rate
    /// nothing, user 3 one item, user 4 one value everywhere, the rest a
    /// seeded random tenth to half of the items.
    fn scattered() -> RatingMatrix {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut b = MatrixBuilder::with_dims(70, 40);
        b.push(UserId::new(3), ItemId::new(5), 4.0);
        for i in 0..6u32 {
            b.push(UserId::new(4), ItemId::new(i * 5), 3.0);
        }
        for u in 5..70u32 {
            let density = rng.gen_range(0.1..0.5);
            for i in 0..40u32 {
                if rng.gen::<f64>() < density {
                    b.push(
                        UserId::new(u),
                        ItemId::new(i),
                        rng.gen_range(2u32..=10) as f64 / 2.0,
                    );
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn lane_kernel_matches_the_pairwise_loop_bit_for_bit() {
        let m = scattered();
        // Every lane width, a full and a partial group of each, and
        // several 32-lane groups.
        for k in [1usize, 5, 8, 9, 16, 17, 31, 32, 33, 64, 70] {
            // Single-user, multi-member, constant and undefined centroids.
            let centroids: Vec<Centroid> = (0..k)
                .map(|c| match c % 4 {
                    0 => Centroid::from_single_user(&m, UserId::from(c % 70)),
                    1 => {
                        let members: Vec<UserId> = (c..70).step_by(9).map(UserId::from).collect();
                        Centroid::from_members(&m, &members)
                    }
                    2 => Centroid::from_single_user(&m, UserId::new(4)),
                    _ => Centroid::from_members(&m, &[]),
                })
                .collect();
            let lanes = CentroidLanes::new(&centroids, m.num_items());
            for u in m.users() {
                let reference: Vec<f64> = centroids
                    .iter()
                    .map(|c| reference_similarity(c, &m, u))
                    .collect();
                for (c, &s) in reference.iter().enumerate() {
                    assert_eq!(
                        lanes.similarity(&m, u, c).to_bits(),
                        s.to_bits(),
                        "k={k} {u:?} centroid {c}"
                    );
                }
                let first_best = reference
                    .iter()
                    .enumerate()
                    .fold((0, f64::NEG_INFINITY), |best, (c, &s)| {
                        if s > best.1 {
                            (c, s)
                        } else {
                            best
                        }
                    })
                    .0;
                assert_eq!(lanes.nearest(&m, u), first_best, "k={k} {u:?}");
            }
        }
    }

    #[test]
    fn recovers_planted_clusters() {
        let m = two_blocks();
        let a = KMeans::fit(
            &m,
            &KMeansConfig {
                k: 2,
                max_iterations: 20,
                seed: 7,
                threads: Some(2),
                ..Default::default()
            },
        );
        assert_eq!(a.k(), 2);
        let c0 = a.cluster_of(UserId::new(0));
        for u in 1..4u32 {
            assert_eq!(a.cluster_of(UserId::new(u)), c0, "user {u}");
        }
        let c4 = a.cluster_of(UserId::new(4));
        assert_ne!(c0, c4);
        for u in 5..8u32 {
            assert_eq!(a.cluster_of(UserId::new(u)), c4, "user {u}");
        }
        assert!(a.converged);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let m = two_blocks();
        let cfg = KMeansConfig {
            k: 3,
            seed: 11,
            ..Default::default()
        };
        let a = KMeans::fit(&m, &cfg);
        let b = KMeans::fit(&m, &cfg);
        for u in m.users() {
            assert_eq!(a.cluster_of(u), b.cluster_of(u));
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let m = two_blocks();
        let a = KMeans::fit(
            &m,
            &KMeansConfig {
                k: 2,
                seed: 3,
                threads: Some(1),
                ..Default::default()
            },
        );
        let b = KMeans::fit(
            &m,
            &KMeansConfig {
                k: 2,
                seed: 3,
                threads: Some(4),
                ..Default::default()
            },
        );
        for u in m.users() {
            assert_eq!(a.cluster_of(u), b.cluster_of(u));
        }
    }

    #[test]
    fn k_larger_than_user_count_is_clamped() {
        let m = two_blocks();
        let a = KMeans::fit(
            &m,
            &KMeansConfig {
                k: 100,
                ..Default::default()
            },
        );
        assert!(a.k() <= 8);
        for u in m.users() {
            assert!(a.cluster_of(u) < a.k());
        }
    }

    #[test]
    fn members_partition_all_users() {
        let m = two_blocks();
        let a = KMeans::fit(
            &m,
            &KMeansConfig {
                k: 3,
                ..Default::default()
            },
        );
        let total: usize = a.sizes().iter().sum();
        assert_eq!(total, m.num_users());
        for c in 0..a.k() {
            for &u in a.members(c) {
                assert_eq!(a.cluster_of(u), c);
            }
            // member lists are sorted ascending
            assert!(a.members(c).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn empty_profile_users_are_assigned_somewhere() {
        let mut b = MatrixBuilder::with_dims(5, 3);
        b.push(UserId::new(0), ItemId::new(0), 5.0);
        b.push(UserId::new(0), ItemId::new(1), 1.0);
        b.push(UserId::new(1), ItemId::new(0), 4.0);
        b.push(UserId::new(1), ItemId::new(1), 2.0);
        // users 2..4 rate nothing
        let m = b.build().unwrap();
        let a = KMeans::fit(
            &m,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
        );
        for u in m.users() {
            assert!(a.cluster_of(u) < a.k());
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let m = two_blocks();
        let _ = KMeans::fit(
            &m,
            &KMeansConfig {
                k: 0,
                ..Default::default()
            },
        );
    }

    #[test]
    fn plus_plus_also_recovers_planted_clusters() {
        let m = two_blocks();
        let a = KMeans::fit(
            &m,
            &KMeansConfig {
                k: 2,
                init: KMeansInit::PlusPlus,
                seed: 7,
                ..Default::default()
            },
        );
        let c0 = a.cluster_of(UserId::new(0));
        for u in 1..4u32 {
            assert_eq!(a.cluster_of(UserId::new(u)), c0);
        }
        assert_ne!(a.cluster_of(UserId::new(4)), c0);
    }

    #[test]
    fn plus_plus_spreads_initial_seeds_across_blocks() {
        // With farthest-first seeding, the two seeds must land in
        // different taste blocks for any seed value.
        let m = two_blocks();
        for seed in 0..10u64 {
            let a = KMeans::fit(
                &m,
                &KMeansConfig {
                    k: 2,
                    init: KMeansInit::PlusPlus,
                    seed,
                    max_iterations: 20,
                    threads: Some(2),
                    tol: 1e-9,
                },
            );
            // converged 2-cluster solutions on this data separate the blocks
            assert_ne!(
                a.cluster_of(UserId::new(0)),
                a.cluster_of(UserId::new(7)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn plus_plus_is_deterministic_per_seed() {
        let m = two_blocks();
        let cfg = KMeansConfig {
            k: 3,
            init: KMeansInit::PlusPlus,
            seed: 5,
            ..Default::default()
        };
        let a = KMeans::fit(&m, &cfg);
        let b = KMeans::fit(&m, &cfg);
        for u in m.users() {
            assert_eq!(a.cluster_of(u), b.cluster_of(u));
        }
    }
}
