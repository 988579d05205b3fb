// Command benchmark is the repository's end-to-end benchmark. It measures
// the program as shipped, through public package functions (core.Sweep,
// serve.New, Server.Handler, Server.WaitJob, worker.New, Worker.Run) and
// the public HTTP API (POST /jobs, GET /jobs/{id}/rendition), and it
// checks every output it measures.
//
// Run it from the repository root; run.sh builds it from the checkout:
//
//	bash benchmark/run.sh --workload sweep --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, with --trace 1 the per-layer ones; both lists are
// declared in BENCHMARK.json at the repository root. The lines before it
// give the machine fingerprint (CPU model, nproc, GOMAXPROCS, Go version,
// git revision: figures are comparable only between equal fingerprints),
// each tail percentile with the percentile it really is and its sample
// count, and any correctness gate that failed. A failed gate exits 1.
//
// # Processes
//
// The core caches are process-wide and never emptied, so anything that
// must be cold runs in a fresh process of the same binary. One invocation
// runs four processes that only set up, then the measured process(es),
// then, when traced, one probe process. setup_s is the median over every
// set-up. GOMAXPROCS is the CPU count; the benchmark uses at most that
// many worker slots and client connections.
//
// # Workloads
//
// sweep is the §III-C1 characterization, run cold: desktop, cricket and
// holi (vbench entropy 0.2, 3.4 and 7.0) x crf {15,23,31,39} x refs
// {1,2,4,8} x the five Table IV configurations, 240 points at frames 6,
// scale 8. Set-up is the Plan.Warm phase, run as core.Sweep of a plan
// with no points; the points then go through core.Sweep one plan each,
// issued by GOMAXPROCS goroutines in a seeded order, so each point's
// latency is visible from outside. Cold sweep processes run back to back
// while the next still fits in --seconds. codec, uarch and the seven core
// caches do all the work; serve, queue, sched and worker do none, so a
// serving change should read flat here.
//
// serve_mixed is the online service under open-loop load: 20 jobs/s, about
// half of what the fleet sustains, for --seconds. Arrival times are a
// Poisson process conditioned on its count (sorted uniform draws), so the
// offered load is equal on every seed. Jobs are single-part, at frames 4,
// scale 16, from one task multiset drawn by sched.GenerateTasks over all
// 15 videos, crf 10-44, refs 1-8, ultrafast to slow; the seed orders it
// and times the arrivals. The orchestrator runs the fleet transport under
// the seconds objective, warmed on all 15 videos; two in-process workers
// (fe_op and be_op1) reach it over loopback HTTP. Per-job compute is small
// and heavy-tailed, so admission, queueing, placement, lease delivery and
// settle are a visible share of sojourn and placement has a real choice.
// BENCHMARK.json leaves serve_mixed out of its gated workloads: over ten
// seeds its median sojourn spread by up to 26% of the median, and the
// run budget does not allow the longer runs that would steady it
// alongside the other two. It still runs, traced or not, with
// --workload serve_mixed, and the self-test covers it.
//
// serve_ladder is the same serving layer used differently: two closed-loop
// clients each submit a title as a 3-rung (crf 23/31/39) x 4-segment
// ladder at frames 8, scale 16, wait for the parent job, then fetch every
// rung's stitched rendition. The clients walk a seeded permutation of a
// fixed catalog of 8 titles (videos across the entropy range, presets up
// to medium, refs up to 4, so parts fit both backends) half a catalog
// apart; repeated titles reuse the shared analysis. The fleet is one
// software baseline worker and one accelerator worker under the cost
// objective. The slowest of 12 parts sets a title's time; accelerator
// parts skip the uarch simulation, so a simulator speedup should barely
// move this workload.
//
// Each workload's inputs are fixed by its definition and the seed orders
// and times them: a per-seed grid, task mix or catalog moved throughput
// and latency by 15-25% between seeds, more than the changes the
// benchmark must resolve.
//
// # End-to-end metrics
//
// Each workload reports every end-to-end metric, for its own operation:
// a sweep point, a mixed job, a ladder title.
//
//	setup_s           process start to the first timed operation
//	mem_peak_mb       peak RSS (VmHWM) of the measured process
//	throughput_per_s  operations completed / wall time of the timed phase
//	latency_p50_ms    median operation latency: a point's core.Sweep
//	                  call; a job's sojourn from its scheduled send time
//	                  to WaitJob returning; a title from submit to its
//	                  last rendition fetched
//
// Every run also prints the latency tail: p99, or with fewer than 1000
// samples the highest percentile with 10 samples beyond it, labelled with
// that percentile and the sample count; traced runs report it as
// latency.tail_ms. It is not an end-to-end metric because under
// open-loop load it is set by how the few heaviest jobs cluster in the
// arrival order: serve_mixed's tail moved by 20-60% between seeds at any
// rate tried. Simulated service time and cost per operation
// (sched.sim_us_per_op, Totals.SimSeconds / Completed on serve_mixed, the
// paper's scheduler figure of merit; backend.cost_ucents_per_op, the
// parents' CostCents on serve_ladder) are per-layer for another reason:
// on the sweep they are constants pinned by its digest.
//
// Percentiles come from raw per-operation samples, never from
// obs.Histogram, whose power-of-two buckets allow 2x error. Failed
// operations (failed points; 429/422, failed or lost jobs; wrong
// renditions) are the result's failed count out of attempted: the error
// rate is failed/attempted, and an end-to-end metric must never be 0.
//
// # Correctness gates
//
// sweep: every point succeeds, and a digest of every simulated statistic
// and the bitstream sizes equals the digest recorded for the grid, so a
// simulator-only speedup must leave the model bit-identical. serve_mixed:
// no lost job, submitted = completed + failed + canceled, and the client's
// summed CostCents equals Totals.CostCents. serve_ladder: the same ledger,
// and after the timed phase every fetched rendition matches, byte for
// byte, a serial reference (core.Run of each segment with KeepStream, then
// codec.StitchStreams). serve_mixed also fails when the offered load was
// over capacity: the queue depth, sampled every 100 ms, must not trend up
// by more than backlogLimit jobs across the arrival window.
//
// # Traced run
//
// --trace 1 times the calls into each layer from outside. Worker-side
// spans come from the HTTP transport handed to each worker.Worker: it
// stamps /fleet/poll responses (tee-parsing the assigned job id) and
// /fleet/result requests, so the worker code is unchanged. A serve run
// traces the second half of its window, and a sweep adds one traced sweep
// process after an untraced one; trace.overhead_share compares the two
// halves (latency p50 for serve, throughput for sweep). Per-job stamps
// form the contiguous intervals lag, admit, queue wait, worker exec,
// settle and notify; serve.unattributed_ms_p50 is the median of what they
// leave of the sojourn. The probe process times the cold decode-side
// layers per video: core.Mezzanine, core.DecodedMezzanine, trace.Parse,
// and Machine.ReplayEvents on every Table IV machine. Sampled jobs rerun
// warm give uarch.sim_share (1 - t(core.EncodeOnly)/t(core.Run)) and,
// with StageMetrics, the codec stage split. Cache hit ratios are read
// from the core caches' own obs counters. A metric a workload does not
// exercise reads 0.
//
// # Seeds
//
// Every seeded input is drawn from a counter-based stream keyed by a
// splitmix64 mix of --seed, never from the raw seed. Two existing
// generators collide across seeds and are left for a later change:
// cmd/loadgen's gap() hashes seed^i, so seeds 1-4 yield the same gaps,
// only reordered; sched.GenerateTasks seeds its xorshift with seed|1, so
// seeds 2k and 2k+1 yield identical task lists (the benchmark calls it
// once, with a fixed seed).
//
// # Noise
//
// On a shared 2-CPU virtual machine a fixed single-threaded loop varies by
// about 20% from one second to the next, and host steal comes in bursts;
// every measured process notes its steal share (host.steal_share when
// traced). Over ten seeds of 45 s on such a machine the interquartile
// spread was 12-14% of the median for throughput and median latency and
// under 4% for peak memory; baseline.json records those runs with their
// fingerprint, and the bounds in BENCHMARK.json are set from them.
package main
