// Package core implements the paper's primary contribution: the joint
// Community Profiling and Detection (CPD) model of Sect. 3 and its scalable
// inference algorithm of Sect. 4 — collapsed Gibbs sampling over topic and
// community assignments with Pólya-Gamma data augmentation for the two
// sigmoid link likelihoods (friendship, Eq. 3; diffusion, Eq. 5),
// interleaved with a variational-EM M-step that re-estimates the diffusion
// profile η by assignment aggregation and the individual-preference weights
// ν by logistic regression. A multi-threaded E-step reproduces Sect. 4.3's
// parallelization: LDA-based user segmentation packed onto workers with 0-1
// knapsack workload balancing.
//
// # E-step samplers
//
// Config.Sampler selects how the E-step draws each document's topic and
// community assignment; both samplers target the same collapsed
// conditionals and share the engine's determinism contract (bit-identical
// training for any Workers value, from the same seed).
//
//   - SamplerExact (the default, gibbs.go) draws from the full conditional
//     by a Gumbel-max over every candidate (rng.CategoricalLog). A topic
//     draw scores every topic's prior and word terms — O(|Z|·|doc|) — but
//     bounds each diffusion kernel log ψ(x, δ) by its peak 1/(8δ) and
//     computes the kernels (one bilinear form per link) only for the
//     topics that bound cannot rule out (rng.CategoricalLogBounded): about
//     2.5 % of them on cpd-bench's train workload, so the O(|Z|·links)
//     term all but disappears. A community draw still scans:
//     O(|C|·links). Either way the winner and the generator state are the
//     full scan's, bit for bit. It is the reference path — its training
//     trajectories are pinned bit-for-bit by golden tests, and the zero
//     value of Config.Sampler means exact so that configs serialize
//     identically to pre-Sampler releases.
//
//   - SamplerAlias (sampler_alias.go) replaces the full scan with a few
//     Metropolis–Hastings steps per draw: candidates come from O(1)
//     alias-table draws (Vose tables over sweep-start counts, package
//     internal/alias) or sparse-bucket draws over the user's own
//     assignments, and each candidate is accepted or rejected against the
//     exact conditional evaluated at just two points — link kernels
//     included, so the stationary distribution is the exact conditional.
//     Cost per draw is O(MH steps · (log support + |doc| terms)) instead
//     of a |Z|- or |C|-linear scan, which is what makes large label
//     spaces affordable (BenchmarkEStep: ~1.5x E-step throughput at
//     |C| = |Z| = 128, against an exact sampler that reads its logs from
//     tables and bounds its topic draws). Its chains consume randomness
//     differently from
//     the exact sampler's, so alias quality is gated by scenario NMI
//     floors (internal/scenario) rather than golden equality. The
//     engine counts proposed and accepted moves per proposal type
//     (Diagnostics.MH).
//
// # What the kernels read and do not recompute
//
// Both samplers score candidates with logs of an integer count plus a
// hyper-parameter. Those come from read-only tables built with the state
// (countLogs: log(n+α), log(n+|Z|α), log(n+β), and the two attribute
// ones), shared by all workers, with math.Log as the fallback past a
// table's end; the word-likelihood denominators log((n_z+Wβ)+j) come from
// a per-scratch, per-topic cache keyed by n_z+Wβ (denLogs); n_zw is stored
// word-major so the exact topic scan adds each word's term over one
// contiguous run of topics; and the π̂ snapshots carry their residual sums
// for sparse.SmoothedVec.DotSums. Each of these returns the bits the
// recomputation would, in the same order of additions, so training is
// bit-identical with or without them; kernels_oracle_test.go holds the
// recomputing kernels and checks that.
package core
