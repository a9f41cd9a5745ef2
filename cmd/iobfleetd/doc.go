// Command iobfleetd is the long-running fleet service: it accepts sweep
// submissions over HTTP, runs them on a bounded pool of in-process
// runners, and stays observable and killable the whole time.
//
// Usage:
//
//	iobfleetd -listen 127.0.0.1:9370 -data /var/lib/iobfleetd -sweeps 2 \
//	    [-backends http://b0:9370,http://b1:9370] \
//	    [-register http://co:9370 -heartbeat 2s] \
//	    [-expire 10s] [-steal-after 15s] [-retain 100]
//
// # Endpoints
//
// Submissions are the iobfleet flag surface as JSON (wearers, seed,
// dur_seconds, workers, per_spread, batt_spread, harvest_prob,
// drop_prob, ble_frac, drain, cells, density, feedback, max_iters,
// tol_ppm, series_seconds, block_size, shards — all literal, no
// server-side defaults beyond zero values):
//
//	POST   /api/sweeps                  submit → 202 + sweep state
//	GET    /api/sweeps                  all sweeps, submission order
//	GET    /api/sweeps/{id}             one sweep's state
//	DELETE /api/sweeps/{id}             cancel (200; 409 once terminal)
//	GET    /api/sweeps/{id}/progress    NDJSON progress stream (curl -N)
//	POST   /api/loads                   phase-1 gather for a shard spec
//	GET    /api/sweeps/{id}/store       committed telemetry prefix
//	GET    /api/sweeps/{id}/shards/{k}/store  a coordinator's shard partial
//	POST   /api/backends                register/heartbeat a backend
//	GET    /api/backends                the membership table
//	DELETE /api/backends?url=...        deregister (a heartbeat's goodbye)
//	GET    /metrics                     Prometheus text exposition 0.0.4
//	GET    /healthz                     readiness (503 while draining)
//	GET    /debug/pprof/...             live profiling
//
// The store endpoints serve exactly the checkpointed byte prefix —
// never the volatile tail or the trailing index — honoring ?from= for
// incremental pulls, which is what makes a store an append-only
// replication feed. /api/sweeps/{id}/store also carries the sweep's
// state in X-Sweep-Status, X-Sweep-Error (failed sweeps), X-Next-Wearer,
// X-Committed-Offset and X-Iobfleetd-Instance headers, and answers 200
// with an empty body and X-Next-Wearer -1 before the first commit.
//
//	curl -d '{"wearers":1000,"seed":42,"dur_seconds":600,"cells":50}' \
//	    localhost:9370/api/sweeps
//
// The spec is wiban/internal/sweep's Spec, the one sweep definition the
// iobfleet CLI shares: its validation (a refused spec is a 400), the
// fleet and store metadata it builds, the create and resume paths of
// its store and the stop-aware run all live there, so the CLI and the
// daemon accept, reject and execute the same sweeps. The daemon adds
// the state machine around a run: queueing, sidecars, metrics, progress,
// the seed-store pull a replacement shard backend resumes from, and
// the coordinator's shard protocol.
//
// Every sweep streams its records into a telemetry store
// (<data>/<id>.wtl, see wiban/internal/telemetry) beside a JSON state
// sidecar (<data>/<id>.json, written atomically), so the daemon's word
// about a sweep is always durable truth: the progress stream ticks only
// on committed blocks, and the /metrics byte/block counters count only
// checkpointed writes. Progress events are full state snapshots, lossy
// for intermediate ticks under a slow reader but guaranteed for the
// final line ("final": true). Submissions past the queue cap are
// refused with 503 before an ID is allocated or anything touches disk;
// recovery on restart bypasses the cap entirely, so a backlog larger
// than it re-queues rather than deadlocking startup.
//
// # Metric catalog
//
// Sweep lifecycle (counters, plus queue gauges):
//
//	iobfleetd_sweeps_submitted_total    accepted by POST /api/sweeps
//	iobfleetd_sweeps_started_total      picked up by a runner (resumes included)
//	iobfleetd_sweeps_completed_total    finished with a fingerprint
//	iobfleetd_sweeps_failed_total       ended by an error
//	iobfleetd_sweeps_interrupted_total  checkpointed and parked by a drain
//	iobfleetd_sweeps_resumed_total      continued from a telemetry checkpoint
//	iobfleetd_sweeps_queued             waiting for a runner (gauge)
//	iobfleetd_sweeps_running            currently executing (gauge)
//
// Engine (func metrics over the shared fleet.Stats the zero-alloc hot
// path updates with atomics; rate() over the first two gives live
// wearers/s and kernel events/s):
//
//	iobfleetd_wearers_simulated_total
//	iobfleetd_kernel_events_total
//	iobfleetd_phase1_gather_seconds_total
//	iobfleetd_phase1_solve_seconds_total
//	iobfleetd_equilibrium_iterations_total
//	iobfleetd_equilibrium_cells_total
//	iobfleetd_reorder_window_depth      (gauge)
//
// Telemetry and per-sweep distributions:
//
//	iobfleetd_telemetry_blocks_written_total
//	iobfleetd_telemetry_bytes_written_total
//	iobfleetd_sweep_duration_seconds    (histogram)
//	iobfleetd_phase1_duration_seconds   (histogram)
//	iobfleetd_sweep_allocated_bytes     (histogram; process-wide
//	                                    TotalAlloc delta per sweep — an
//	                                    upper bound under concurrency)
//
// Shard dispatch and fleet membership (coordinator side):
//
//	iobfleetd_shards_dispatched_total   sub-sweeps shipped to a backend
//	iobfleetd_shards_stolen_total       speculative copies planted past -steal-after
//	iobfleetd_shard_retries_total       dispatch/stream attempts retried
//	iobfleetd_shard_fetch_bytes_total   committed store bytes pulled back
//	iobfleetd_backends_configured       size of the -backends list (gauge)
//	iobfleetd_backends_registered       membership table size incl. static (gauge)
//	iobfleetd_backends_live             members currently past their TTL gate (gauge)
//	iobfleetd_backend_registrations_total  POST /api/backends registrations + revivals
//	iobfleetd_backends_expired_total    live→expired transitions (lazy, counted on read)
//
// Cancellation and retention:
//
//	iobfleetd_sweeps_cancelled_total    parked terminally by DELETE
//	iobfleetd_sweeps_retired_total      terminal sweeps GC'd past -retain
//
// Go runtime: iobfleetd_goroutines, iobfleetd_heap_alloc_bytes,
// iobfleetd_gc_cycles_total.
//
// # Sharded dispatch
//
// A sweep submitted with "shards": N > 1 makes this daemon a
// coordinator: it splits the wearer range [0, Wearers) into N
// contiguous sub-ranges, submits each as an ordinary sweep (same spec,
// first_wearer/end_wearer set, shards stripped) to the live fleet —
// the -backends list plus every dynamically registered member (see
// Fleet membership below) — or to itself over loopback when the table
// is empty, which needs spare -sweeps slots because the coordinator
// sweep occupies one while its shards run — then streams each shard's
// committed store bytes back incrementally and merges the replicas
// into one <id>.wtl. Because per-wearer seeds derive from absolute
// indices and block boundaries are deterministic, every backend
// executing a given shard writes the identical byte sequence, so the
// merged store — fingerprint, blocks, checkpoint and trailing index —
// is bit-identical to the same spec run unsharded in a single process.
// That guarantee covers series sampling: a sharded sweep accepts
// series_seconds, each backend commits its record+series frame pairs in
// one write (so the replicated committed prefix always ends after a
// complete pair), and the merge re-pairs and re-encodes the samples at
// the merged block boundaries — iobtrace query reads identical numbers
// off the merged store and a single-backend run's.
//
// Feedback coupling adds a round: the coordinator first POSTs each
// range to /api/loads on its backends, merges the partial load tables
// and member windows, runs the one deterministic equilibrium solve
// itself, and ships each shard its windowed slice of the solution in
// the sub-spec, so phase 2 everywhere sees the exact equilibrium a
// single process would have computed.
//
// The fault model is label-idempotent re-dispatch. Sub-sweeps carry a
// deterministic label; re-submitting one is a no-op on a backend that
// already holds it, so a lost connection just re-asks. A backend that
// dies and comes back on the same address resumes its recovered shard
// from its own checkpoint; a replacement backend with an empty data
// dir seed-pulls the coordinator's partial replica (the shards/{k}
// endpoint) and appends from there. Dispatch needs no readiness probe:
// a draining backend refuses the POST with 503, as does one with a full
// queue, and the coordinator rotates to the next backend. Each store
// feed answer carries an X-Iobfleetd-Instance nonce, so a supervisor
// notices a backend that was killed and restarted between two polls
// even when the address never changed.
// TestShardedFingerprint and TestShardedSeriesFingerprint (bytes and
// fingerprint vs an unsharded run, both coupling modes, series on and
// off) and TestShardedChaosKillResume (a backend SIGKILLed mid-sweep
// and resurrected, byte-identity required afterwards) pin the contract.
//
// # Fleet membership
//
// Besides the static -backends list, backends join the fleet by
// registering themselves: a daemon started with -register posts its
// own base URL to each named coordinator's /api/backends and keeps
// heartbeating it every -heartbeat interval; on drain the loop sends a
// goodbye DELETE so the coordinator stops selecting a backend that is
// about to exit. A member that falls silent past the coordinator's
// -expire TTL stops being selected for new shard placement — but
// expiry gates placement only: a supervisor's host list is sticky, so
// replication keeps pulling from an "expired" backend that still
// answers, and an in-flight shard is never dropped by a missed
// heartbeat. Expiry is lazy-on-read (checked when the table is
// consulted, counted once per live→expired transition), an expired
// entry stays in the table and revives in place on the next heartbeat
// (one row per address, however often it blinks), and the dynamic
// table persists beside the sweeps (<data>/backends.json) so a
// coordinator restart recovers its fleet without waiting for the next
// heartbeat round. While the table is non-empty but nothing is live,
// sharded dispatch waits for a member to come back rather than falling
// back to loopback. TestMembershipTable and
// TestMembershipExpiryKeepsInFlightDispatch pin the semantics.
//
// # Work-stealing
//
// A shard whose committed progress stalls for longer than -steal-after
// while other backends sit live is speculatively re-dispatched: the
// supervisor plants a copy of the sub-sweep (same deterministic label,
// disjoint data dirs) on another live backend and replicates from
// whichever copy commits first; completion is committed-prefix wins —
// a copy only finishes the shard when its replicated bytes reach the
// shard's end. The losing copy is cancelled on its backend so no queue
// slot or runner is left working for a shard someone else finished.
// Because every backend executing a shard writes the identical byte
// sequence, speculation never risks divergence — the merged store is
// byte-identical no matter which copy won. -steal-after 0 disables
// stealing. TestStealStraggler (a backend whose only slot is hogged;
// the copy wins elsewhere and the loser is cancelled) and
// TestStealKilledBackendNeverRestarts (a SIGKILLed backend that never
// comes back; survivors absorb its shards, byte-identity required)
// pin it, and TestSustainedChaos keeps the whole self-healing surface
// honest under a seeded adversary of kills, drains, restarts, spawns
// and cancellations.
//
// # Cancellation
//
// DELETE /api/sweeps/{id} parks a sweep terminally from any live
// state: a queued sweep never starts (its slot is released), a running
// sweep aborts at its next record boundary, and a coordinator sweep
// additionally cancels every sub-sweep on every backend and removes
// its partial shard stores — cancelled means no runner, no queue slot
// and no partials anywhere in the fleet. The request is idempotent
// (re-DELETE of a cancelled sweep is 200 without recounting); a sweep
// already done or failed answers 409. Cancellation is durable: the
// request is recorded in the sidecar, so a daemon killed between the
// DELETE and the park finalizes the cancel on recovery instead of
// resuming the sweep. The committed telemetry written before the
// cancel stays on disk (useful as a partial trace) until retention
// collects it. TestCancelQueued/Running/Recovery and
// TestCancelShardedPropagates pin the path.
//
// # Retention
//
// -retain N keeps the newest N terminal (done or cancelled) sweeps in
// -data and garbage-collects older ones — sidecar, store and
// checkpoint — counting a retirement per collected sweep. Resumable
// state is never touched: interrupted, queued and running sweeps don't
// count against N and their stores and checkpoints survive both the
// steady-state prune and the boot-time prune a restart runs before
// serving. 0 (the default) keeps everything. TestRetainGC pins both
// sides.
//
// # Drain and restart
//
// Shutdown is a first-class path, not an accident. On SIGTERM or SIGINT
// the daemon drains: running sweeps abort at their next record boundary
// with the telemetry checkpoint intact, park as "interrupted" (their
// progress streams end with a final event), queued sweeps stay queued,
// new submissions get 503, and the process exits 0. On the next start
// with the same -data, every non-terminal sweep — interrupted, queued,
// or mid-run crashed (SIGKILL included: recovery needs only the
// sidecars and store checkpoints on disk) — re-enters the queue in ID
// order and resumes from its checkpoint. Resumed fingerprints are
// bit-identical to uninterrupted runs, the same contract iobfleet
// -resume keeps; TestChaosKillResume is the pinning test.
//
// /debug/pprof serves live profiles from the same mux; pair it with the
// iobfleet -cpuprofile/-memprofile flags when you want offline capture
// of a single sweep instead.
package main
