// Package stream is the write path of the serving system: it turns live
// events — new users, friendship edges, documents, diffusions — into
// refreshed model snapshots, so the profiles cpd-serve answers from track
// a moving social graph without full retrains. Three pieces compose it:
//
//   - Journal (journal.go): an append-only, CRC-framed event log with
//     batched fsync, crash-safe replay (a torn or corrupt tail is detected
//     and truncated at the last valid record) and a published-offset
//     watermark. It is never shortened: it is the corpus a restart
//     replays. Record framing reuses the
//     length+CRC32 section discipline of the internal/store snapshot
//     formats.
//
//   - Updater (updater.go): validates and applies events into an
//     accumulated stream corpus, and every delta window re-infers the
//     affected users by folding their cumulative documents and friendships
//     in against the frozen model parameters through serve.Engine's
//     fold-in worker pool. Every GibbsEvery-th generation may additionally run
//     a resumable delta-Gibbs pass (core.NewEngineFromModel +
//     Engine.SetDirty) over the merged base+stream graph, re-estimating
//     the affected rows — and the global Θ/Φ/η — by actual sampling.
//
//   - Publisher (publish.go): builds the extended model (base rows +
//     folded/re-estimated rows), writes it into Options.Dir as a v2
//     snapshot with a monotonic generation number, maps and checks it
//     (shard.OpenWhole), commits it, atomically promotes that mapping into
//     the target serve.Engine slot the way a replica does
//     (Engine.PromoteGroup; hot-swap, in-flight queries finish on their
//     old snapshot), advances the
//     journal watermark, and prunes old snapshot files. Every generation
//     is a committed file: each is committed by a shard manifest
//     (internal/shard) — a group's with Options.Shards > 1, otherwise a
//     one-shard manifest naming the full file — which replicas fetch it
//     through: the snapshot directory itself, or SnapshotServer's
//     /api/shards endpoints (manifest.go). Pruning removes each manifest
//     before the files it names. Status() is the freshness/lag gauge /api/stats exposes, now
//     including per-phase publish timings and publish-latency /
//     append→servable-lag histograms.
//
// # O(changed) publishes
//
// Steady-state publishes cost proportional to the set of users that
// changed since the last publish, not the model size. Three layers
// compose the incremental path (see publish.go's header for the flow):
// the extended model is patched from the previous publish's (only
// re-folded Π rows overwritten, new-user rows appended — inside the
// previous Π's own array, since the engine serves the file mapping and
// never sees that array); the serving snapshot is
// patched copy-on-write from the live one by
// serve.Engine.PromoteGroup, given the re-folded rows as an explicit
// delta (the log Θ and log Φ tables are shared — Θ and Φ are unchanged —
// and only the dirty users' user-index rows are recomputed);
// and the on-disk generation is written with store.SaveV2, which encodes
// every section from memory and checksums it on its way to the file (the
// shard group, when there is one, hard-links the files nothing changed).
// What stays O(model) in such a publish is the write of the bytes that go
// to disk: no step walks the
// users (a model has no per-user cache, the dirty-user gauge is a
// maintained count), and Ingest costs the same however many stream users
// exist. Every layer is bit-for-bit identical to a from-scratch rebuild (TestIncrementalPublish*
// pins this differentially, down to byte-equal snapshot files). A publish
// falls back to the full model and save path exactly when the base model
// itself moved or is unknown to this process: a delta-Gibbs pass ran, the
// process restarted, or Options.FullRebuild pins the baseline. Even then
// the serving index is rebuilt only if it has to be: with no delta to
// give, the publisher lets the engine derive one by comparing the new
// model's bytes with the served model's, so the first publish after a
// restart, and a publish after the served snapshot was swapped
// externally, patch the index (status.lastPublishPhases.indexPatched);
// a delta-Gibbs publish, whose Θ/Φ/η really differ, and FullRebuild
// build it from scratch.
//
// # Crash recovery
//
// Every file this package writes — snapshot, global and shard files, a
// generation's manifest, the watermark sidecar (.mark) — is committed
// through store.WriteFileAtomic, so after a crash each is either absent
// or whole. A publish commits in a fixed order: the journal is fsynced,
// the generation's files are written, and its manifest is committed
// last. The directory fsync that ends the manifest commit makes every
// file and hard link of the generation durable with it, and it happens
// before the watermark advances, so the watermark never runs ahead of a
// durable manifest. A crash before the manifest leaves files no manifest
// names, which the next publish of that number overwrites; a crash after
// it leaves a committed generation whose events replay into the next one.
//
// There is one restart path, and each piece of state has one home: the
// journal is the corpus, the newest committed generation is the model.
// NewUpdater replays the whole journal — events up to the watermark are
// applied but neither pending nor dirty, later ones are pending — and
// loads that generation's full file (store.LoadFile checks every payload
// CRC). When the file has the base's shape and its user and
// stream-document counts lie between what the watermark covers and what
// the journal holds, it becomes the refined reference (Gibbs refinements
// included), its document assignments continue the stream documents',
// and the engine serves it at once (Engine.LoadGeneration), before any
// publish. Otherwise the restart extends the base as a first start would:
// every stream user is dirty and every event pending. Numbering resumes
// above the newest manifest, so a generation number replicas may have
// fetched is never reused, and the delta-Gibbs and quality cadences key
// on that number, so they fall on the same generations across a restart:
// a restart between publishes leaves every generation file byte-identical
// to a run without it.
//
// # Freshness and determinism guarantees
//
// An event accepted by Ingest is applied to the in-memory corpus
// immediately and becomes query-visible at the next publish — "visible
// within one publish cycle". Fold-in windows are deterministic: each
// user's profile is a pure function of (base model, their cumulative
// documents and base-user friendships, their derived seed), so ingesting a
// corpus event-by-event and publishing per window yields bit-identical
// query results to batch-folding the same final corpus in one window
// (the replay-equals-batch invariant the streaming scenario presets pin).
// Delta-Gibbs publishes trade that replay identity for genuine
// re-estimation; they remain deterministic per (journal, options).
//
// # Journal format
//
//	header (16 bytes): magic "CPDJNL1\n" + base offset uint64 LE (always 0)
//	records:           length uint32 LE | payload | crc32 uint32 LE (IEEE, over payload)
//	payload:           type u8 | user i32 | target i32 | time i64 | nWords u32 | words []i32 (all LE)
//
// An offset is a record boundary's distance from the end of the header.
// Older builds compacted the journal, dropping the records below the
// watermark into a checkpoint file and recording the first kept record's
// offset as the base; OpenJournal refuses a nonzero base, since those
// records are in no file this package reads. The watermark lives in a
// sidecar file (path + ".mark", offset + CRC, written atomically).
package stream
