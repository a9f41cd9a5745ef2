package fleet

// Fleet-engine benchmarks: population sweeps at 1, 4 and NumCPU workers.
// The headline metrics are runs/s (wearer simulations per second) and
// events/s (discrete events per second across all shards); BENCH_fleet.json
// at the repo root records a baseline.

import (
	"runtime"
	"testing"
	"time"

	"wiban/internal/units"
)

// runBench runs f b.N times and reports allocations plus the headline
// metrics over every iteration, not just the last: runs/s is wearers ×
// b.N and events/s the summed kernel events, each over b.Elapsed(), and
// phase1-ms is the mean phase-1 time per sweep.
func runBench(b *testing.B, f *Fleet) {
	b.Helper()
	b.ReportAllocs()
	var events uint64
	var phase1 time.Duration
	for i := 0; i < b.N; i++ {
		rep, perf, err := f.Run()
		if err != nil {
			b.Fatal(err)
		}
		events += rep.Events
		phase1 += perf.Phase1
	}
	elapsed := b.Elapsed().Seconds()
	b.ReportMetric(float64(f.Wearers*b.N)/elapsed, "runs/s")
	b.ReportMetric(float64(events)/elapsed, "events/s")
	b.ReportMetric(phase1.Seconds()*1e3/float64(b.N), "phase1-ms")
}

// benchFleet sweeps 200 wearers × 60 simulated seconds. Every fleet
// benchmark reports allocs (the zero-allocation kernel contract is a
// headline number here) and phase1-ms (0 when uncoupled) so the
// BENCH_fleet.json schema is uniform across engines.
func benchFleet(b *testing.B, workers int, fresh bool) {
	b.Helper()
	f := testFleet(200, workers, 42)
	f.Span = 60 * units.Second
	f.freshKernels = fresh
	runBench(b, f)
}

func BenchmarkFleetWorkers1(b *testing.B) { benchFleet(b, 1, false) }
func BenchmarkFleetWorkers4(b *testing.B) { benchFleet(b, 4, false) }
func BenchmarkFleetWorkersNumCPU(b *testing.B) {
	b.Logf("NumCPU = %d", runtime.NumCPU())
	benchFleet(b, runtime.NumCPU(), false)
}

// BenchmarkFleetReuse / BenchmarkFleetFresh record the kernel-arena win
// as a first-class pair: identical workload and worker count, with Fresh
// forcing the pre-arena lifecycle (a new Sim, RNG and report per wearer)
// and Reuse running the recycled per-worker arenas. Results are
// bit-identical (TestFreshKernelsMatchesReuse); only allocation lifetime
// — and therefore allocs/op, B/op and GC pressure — differs.
func BenchmarkFleetReuse(b *testing.B) { benchFleet(b, 4, false) }
func BenchmarkFleetFresh(b *testing.B) { benchFleet(b, 4, true) }

// BenchmarkFleetInstrumented is the daemon-path benchmark: the identical
// workload to BenchmarkFleetWorkers4 with a Stats hook attached, the way
// iobfleetd runs every sweep. The delta vs Workers4 is the whole cost of
// live instrumentation — a few atomic adds per wearer — and the
// allocation-budget gate holds it to the same ceilings as the
// uninstrumented engine: instrumentation must not break the zero-alloc
// hot path.
func BenchmarkFleetInstrumented(b *testing.B) {
	f := testFleet(200, 4, 42)
	f.Span = 60 * units.Second
	f.Stats = &Stats{}
	runBench(b, f)
}

// TestFleetParallelSpeedup asserts the acceptance criterion on machines
// with enough cores: the NumCPU-worker sweep of 1,000 wearers runs >2×
// faster than the serial sweep. Below 4 cores there is nothing to
// measure, so the test skips.
func TestFleetParallelSpeedup(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("need ≥4 cores for a speedup claim, have %d", runtime.NumCPU())
	}
	if testing.Short() {
		t.Skip("timing test in -short mode")
	}
	mk := func(workers int) *Fleet {
		f := testFleet(1000, workers, 42)
		f.Span = 60 * units.Second
		return f
	}
	// Warm up once so first-touch allocation noise lands outside the
	// measured runs.
	if _, _, err := mk(1).Run(); err != nil {
		t.Fatal(err)
	}
	_, serial, err := mk(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	_, parallel, err := mk(runtime.NumCPU()).Run()
	if err != nil {
		t.Fatal(err)
	}
	speedup := serial.Elapsed.Seconds() / parallel.Elapsed.Seconds()
	t.Logf("serial %v, parallel %v on %d workers → %.2fx", serial.Elapsed, parallel.Elapsed, parallel.Workers, speedup)
	if speedup <= 2 {
		t.Errorf("speedup %.2fx on %d cores, want > 2x", speedup, runtime.NumCPU())
	}
}

// benchCoupledFleet mirrors benchFleet with the two-phase engine.
// cells ≫ wearers keeps every wearer effectively alone (zero foreign
// load), so the physics — and the per-wearer event count — match the
// uncoupled benchmark and the delta is pure engine overhead: phase 1
// plus coupling bookkeeping. The acceptance budget is ≤10% vs the
// uncoupled workers-matched baseline in BENCH_fleet.json. Phase 1 runs
// the Generator's load pass, matching how cmd/iobfleet wires a sweep.
func benchCoupledFleet(b *testing.B, workers, cells int, feedback bool) {
	b.Helper()
	f := testFleet(200, workers, 42)
	f.Loads = testGenerator().LoadScenario()
	f.Span = 60 * units.Second
	f.Coupling = &Coupling{Cells: cells, Feedback: feedback}
	runBench(b, f)
}

// BenchmarkFleetCoupledSparse is the engine-overhead benchmark (density
// ≈ 0: identical physics to BenchmarkFleetWorkers4, so the runs/s gap is
// the two-phase cost).
func BenchmarkFleetCoupledSparse(b *testing.B) { benchCoupledFleet(b, 4, 1<<20, false) }

// BenchmarkFleetCoupledDense is the physics-inclusive benchmark: ~12
// wearers per cell of contending BLE traffic, the shape of a real
// density sweep (collision retries add events, so runs/s is expected to
// move with the workload, not the engine).
func BenchmarkFleetCoupledDense(b *testing.B) { benchCoupledFleet(b, 4, 16, false) }

// BenchmarkFleetFeedbackSparse is the equilibrium-overhead benchmark:
// every wearer is alone in its cell, so every fixed point is trivial
// (zero rounds) and the physics match CoupledSparse exactly — the
// runs/s gap vs CoupledSparse is the cost of the feedback machinery
// itself (member gathering plus the solve walk). The acceptance budget
// is ≤10% over the two-phase baseline, matching PR 3's discipline.
func BenchmarkFleetFeedbackSparse(b *testing.B) { benchCoupledFleet(b, 4, 1<<20, true) }

// BenchmarkFleetFeedbackDense iterates real fixed points (~12 wearers
// per cell of contending BLE traffic). Like CoupledDense it moves with
// the workload — equilibrium collisions add retries and events — so
// phase1-ms, not runs/s, is the engine-cost signal.
func BenchmarkFleetFeedbackDense(b *testing.B) { benchCoupledFleet(b, 4, 16, true) }
