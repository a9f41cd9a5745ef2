package fleet

// The two CI gates over BENCH_fleet.json, the recorded benchmark
// baseline at the repo root: every fleet and telemetry benchmark must
// have a baseline entry, and the budgeted benchmarks must stay under
// their recorded allocation ceilings.

import (
	"encoding/json"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fleetBenchmarks are the benchmarks a budget in BENCH_fleet.json may
// name.
var fleetBenchmarks = map[string]func(*testing.B){
	"BenchmarkFleetWorkers1":       BenchmarkFleetWorkers1,
	"BenchmarkFleetWorkers4":       BenchmarkFleetWorkers4,
	"BenchmarkFleetWorkersNumCPU":  BenchmarkFleetWorkersNumCPU,
	"BenchmarkFleetReuse":          BenchmarkFleetReuse,
	"BenchmarkFleetFresh":          BenchmarkFleetFresh,
	"BenchmarkFleetInstrumented":   BenchmarkFleetInstrumented,
	"BenchmarkFleetCoupledSparse":  BenchmarkFleetCoupledSparse,
	"BenchmarkFleetCoupledDense":   BenchmarkFleetCoupledDense,
	"BenchmarkFleetFeedbackSparse": BenchmarkFleetFeedbackSparse,
	"BenchmarkFleetFeedbackDense":  BenchmarkFleetFeedbackDense,
}

// readBenchBaseline decodes BENCH_fleet.json into v.
func readBenchBaseline(t *testing.T, v any) {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_fleet.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("BENCH_fleet.json: %v", err)
	}
}

// TestBenchBaselineFresh is the bench-staleness gate. BENCH_fleet.json
// baselines the fleet and telemetry packages (other packages'
// benchmarks are deliberately not baselined there), so a benchmark
// declared anywhere under either package without an entry means the
// baseline was not re-recorded after the engine grew. Every entry must
// also record bytes_per_op and allocs_per_op, the machine-independent
// metrics TestAllocBudgets holds to the budgets; a baseline refreshed
// without them is stale too.
func TestBenchBaselineFresh(t *testing.T) {
	var doc struct {
		Results []map[string]any `json:"results"`
	}
	readBenchBaseline(t, &doc)
	entries := make(map[string]map[string]any, len(doc.Results))
	for _, r := range doc.Results {
		name, _ := r["name"].(string)
		entries[name] = r
	}
	decl := regexp.MustCompile(`func (Benchmark[A-Za-z0-9_]+)`)
	found := 0
	for _, dir := range []string{".", "../telemetry"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range decl.FindAllSubmatch(src, -1) {
				found++
				name := string(m[1])
				e, ok := entries[name]
				if !ok {
					t.Errorf("BENCH_fleet.json is stale: no entry for %s (%s)", name, path)
					continue
				}
				for _, field := range []string{"bytes_per_op", "allocs_per_op"} {
					if _, ok := e[field]; !ok {
						t.Errorf("BENCH_fleet.json is stale: %s has no %s", name, field)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if found == 0 {
		t.Fatal("no benchmarks found in internal/fleet or internal/telemetry")
	}
}

// TestAllocBudgets is the allocation-budget gate. allocs/op and B/op are
// deterministic per Go version and architecture (unlike ns/op), so each
// benchmark named in BENCH_fleet.json's budgets runs here and must stay
// under its recorded ceilings: a change that reintroduces per-wearer
// kernel rebuilds or per-event heap churn multiplies these numbers by
// orders of magnitude. Raise a budget only with a benchmark table
// showing why.
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	if testing.Short() {
		t.Skip("runs fleet benchmarks")
	}
	var doc struct {
		Budgets map[string]struct {
			Allocs int64 `json:"allocs_per_op_max"`
			Bytes  int64 `json:"bytes_per_op_max"`
		} `json:"budgets"`
	}
	readBenchBaseline(t, &doc)
	if len(doc.Budgets) == 0 {
		t.Fatal("BENCH_fleet.json records no budgets")
	}
	// Allocation counts need no timed run: two iterations per benchmark.
	old := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "2x"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", old)
	for name, budget := range doc.Budgets {
		bench, ok := fleetBenchmarks[name]
		if !ok {
			t.Errorf("budgeted benchmark %s does not exist in internal/fleet", name)
			continue
		}
		r := testing.Benchmark(bench)
		if r.N == 0 {
			t.Errorf("budgeted benchmark %s did not run", name)
			continue
		}
		t.Logf("%s: %d allocs/op (budget %d), %d B/op (budget %d)",
			name, r.AllocsPerOp(), budget.Allocs, r.AllocedBytesPerOp(), budget.Bytes)
		if got := r.AllocsPerOp(); got > budget.Allocs {
			t.Errorf("%s: %d allocs/op exceeds budget %d", name, got, budget.Allocs)
		}
		if got := r.AllocedBytesPerOp(); got > budget.Bytes {
			t.Errorf("%s: %d B/op exceeds budget %d", name, got, budget.Bytes)
		}
	}
}
