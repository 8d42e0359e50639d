// Package repro is a from-scratch Go reproduction of "From Community
// Detection to Community Profiling" (Cai, Zheng, Zhu, Chang, Huang;
// PVLDB 10(6), 2017): the joint Community Profiling and Detection (CPD)
// model, its Pólya-Gamma-augmented collapsed Gibbs / variational-EM
// inference with a knapsack-balanced parallel E-step, the four published
// baselines it is evaluated against (PMTLM, WTM, CRM, COLD) plus the two
// aggregation baselines, the three community-level applications
// (community-aware diffusion, profile-driven ranking, profile-driven
// visualization), a benchmark harness that regenerates every table and
// figure of the paper's evaluation section on synthetic Twitter-like and
// DBLP-like workloads, and an online serving layer: versioned binary
// model snapshots (internal/store) — the 64-byte-aligned v2 layout that
// store.Open serves zero-copy from a memory mapping — and a concurrent
// query engine hosting named,
// refcount-hot-swappable snapshots with a flat top-K user index, an
// inverted rank index and fold-in inference for unseen users
// (internal/serve), and one HTTP surface over it — the JSON API, the
// Fig. 7 diffusion graph and the SocialLens browser page — that the
// cpd-serve and cpd-lens servers both serve. A streaming
// write path (internal/stream) keeps served models fresh without full
// retrains: a CRC'd append-only event journal with crash-safe replay,
// watermark and compaction; an incremental updater that folds affected
// users in per delta window and periodically re-estimates them with a
// resumable delta-Gibbs pass (core.NewEngineFromModel + dirty-set
// sweeps); and a publisher that promotes v2 snapshot generations into
// the serving engine's hot-swap slots (cmd/cpd-serve -ingest, with the
// cpd-stream backfill CLI and cpd-train -resume on the same core path).
// A distributed serving tier (internal/router + cmd/cpd-router) fronts
// N cpd-serve replicas: membership and fold-in route to the owning
// replica by rendezvous user-hash, diffusion to the owner of u, rank
// scatter-gathers with an exact merge, and replicas pull generation
// snapshots from the publisher (serve.Fetcher: CRC-verified over a
// mapping that also warms the page cache, atomically swapped) with
// per-replica health/generation/lag on the router's stats and metrics.
// Sharded snapshots (internal/shard) split a v2 generation into a
// CRC-manifested group — one global file plus N
// per-user-range shard files — so each replica maps only the users it
// owns (cpd-serve -ingest-shards / -fetch-shard); every generation is
// fetched through its manifest, an unsharded one naming the full file as
// its only shard; the router routes by
// shard containment (a full-snapshot replica being shard 0 of 1, one
// path serves every topology), sums per-shard member counts in its rank
// merge, and hydrates cross-shard fold-in/diffusion rows from the
// owners. A workload harness (internal/scenario) adds named seeded
// scenario presets across degree/membership/vocabulary/diffusion
// regimes — including streaming ingest regimes with replay-equals-batch
// and freshness invariants, and fleet presets (full replication, N
// shards, N shards × R replicas) pinning routed-vs-single-node
// bit-equality across a live generation rollout — an end-to-end regression runner
// with golden metric files, and the cpd-loadgen traffic generator that
// reports QPS and latency percentiles (reads and ingest writes) against
// a served model or a router front.
//
// See README.md for a quickstart, the package map, and how to run the
// experiments. The root package holds the per-table/per-figure benchmarks
// (bench_test.go); all implementation lives under internal/.
package repro
