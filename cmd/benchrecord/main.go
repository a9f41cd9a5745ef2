// Command benchrecord regenerates BENCH_fleet.json, the recorded baseline
// of the fleet and telemetry benchmarks, with nothing but the Go toolchain
// and the standard library. It runs every benchmark of the fleet and
// telemetry packages 5 times in one go test invocation, keeps every
// metric's median and its min/max across the runs, and rewrites the
// file's benchmark, recorded, go, cpus, count and results fields. Everything else — the workload description, the
// notes and the allocation budgets TestAllocBudgets enforces — is copied
// through byte for byte. Run it from the repository root on a quiet
// machine:
//
//	go run ./cmd/benchrecord
//
// It prints one summary line per benchmark (median ns/op and its range)
// to standard output.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// runs is how many times each benchmark runs; the file keeps the median
// and min/max of its runs.
const runs = 5

// command runs every benchmark of the two packages BENCH_fleet.json
// baselines, the set TestBenchBaselineFresh requires entries for.
var command = fmt.Sprintf("go test -run ^$ -bench . -count %d ./internal/fleet/ ./internal/telemetry/", runs)

// topKeys are the fields of the baseline file, in the order it is
// written.
var topKeys = []string{"benchmark", "workload", "recorded", "go", "cpus", "count", "note", "budgets_note", "budgets", "results"}

func main() {
	file := flag.String("file", "BENCH_fleet.json", "baseline file to rewrite")
	flag.Parse()

	old, err := os.ReadFile(*file)
	if err != nil {
		log.Fatal(err)
	}
	cmd := exec.Command("go", strings.Fields(command)[1:]...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		os.Stdout.Write(out)
		log.Fatalf("benchrecord: go test: %v", err)
	}
	benches, err := parseBench(bytes.NewReader(out))
	if err != nil {
		log.Fatal(err)
	}
	doc, err := rewrite(old, benches, header{
		Benchmark: command,
		Recorded:  time.Now().UTC().Format("2006-01-02"),
		Go:        runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*file, doc, 0o644); err != nil {
		log.Fatal(err)
	}
	for _, b := range benches {
		ns := b.metrics[0]
		fmt.Printf("%-32s %12.0f ns/op  [%.0f, %.0f]  n=%d\n", b.name, median(ns.values), slices.Min(ns.values), slices.Max(ns.values), len(ns.values))
	}
}

// header holds the top-level fields a recording rewrites.
type header struct {
	Benchmark string
	Recorded  string
	Go        string
	CPUs      int
}

// metric is one reported unit of a benchmark, with one value per run.
type metric struct {
	key    string
	values []float64
}

// bench is one benchmark's runs, its metrics in first-seen order.
type bench struct {
	name    string
	metrics []metric
}

// parseBench reads go test -bench output. A result line is the benchmark
// name (with its -GOMAXPROCS suffix), the iteration count and then value
// and unit pairs; every other line is ignored. Benchmarks come back in
// first-seen order.
func parseBench(r io.Reader) ([]*bench, error) {
	var out []*bench
	byName := map[string]*bench{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || len(f)%2 != 0 {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		b := byName[name]
		if b == nil {
			b = &bench{name: name}
			byName[name] = b
			out = append(out, b)
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchrecord: %s: bad value %q", name, f[i])
			}
			key := unitKey(f[i+1])
			j := slices.IndexFunc(b.metrics, func(m metric) bool { return m.key == key })
			if j < 0 {
				b.metrics = append(b.metrics, metric{key: key})
				j = len(b.metrics) - 1
			}
			b.metrics[j].values = append(b.metrics[j].values, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchrecord: no benchmark results in the go test output")
	}
	return out, nil
}

// unitKey maps a go test unit to its BENCH_fleet.json key: ns/op →
// ns_per_op, B/op → bytes_per_op, runs/s → runs_per_sec, MB/s →
// mb_per_sec, phase1-ms → phase1_ms.
func unitKey(unit string) string {
	if unit == "B/op" {
		return "bytes_per_op"
	}
	k := strings.ToLower(unit)
	k = strings.ReplaceAll(k, "/op", "_per_op")
	k = strings.ReplaceAll(k, "/s", "_per_sec")
	return strings.ReplaceAll(k, "-", "_")
}

// metricKey reports whether an entry key names a measured metric rather
// than a fixed property of the benchmark (workers, cells, feedback, ...).
func metricKey(k string) bool {
	return strings.HasSuffix(k, "_per_op") || strings.HasSuffix(k, "_per_sec") || strings.HasSuffix(k, "_ms")
}

// median returns the middle value of vs (the mean of the middle two for
// an even count). vs is left unchanged.
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rewrite returns the baseline file old with its header fields and
// results replaced. A result entry keeps the fixed properties (non-metric
// keys) of the entry of the same name in old.
func rewrite(old []byte, benches []*bench, h header) ([]byte, error) {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(old, &top); err != nil {
		return nil, fmt.Errorf("benchrecord: %v", err)
	}
	var prev []map[string]json.RawMessage
	if raw, ok := top["results"]; ok {
		if err := json.Unmarshal(raw, &prev); err != nil {
			return nil, fmt.Errorf("benchrecord: results: %v", err)
		}
	}
	props := map[string]map[string]json.RawMessage{}
	for _, e := range prev {
		var name string
		json.Unmarshal(e["name"], &name)
		props[name] = e
	}

	set := func(k string, v any) {
		raw, _ := json.Marshal(v)
		top[k] = raw
	}
	set("benchmark", h.Benchmark)
	set("recorded", h.Recorded)
	set("go", h.Go)
	set("cpus", h.CPUs)
	set("count", runs)

	entries := make([]string, len(benches))
	for i, b := range benches {
		entries[i] = "    " + resultEntry(b, props[b.name])
	}
	top["results"] = []byte("[\n" + strings.Join(entries, ",\n") + "\n  ]")

	var fields []string
	for _, k := range topKeys {
		if v, ok := top[k]; ok {
			fields = append(fields, fmt.Sprintf("  %q: %s", k, v))
			delete(top, k)
		}
	}
	for k := range top {
		return nil, fmt.Errorf("benchrecord: unknown field %q in the baseline file", k)
	}
	return []byte("{\n" + strings.Join(fields, ",\n") + "\n}\n"), nil
}

// resultEntry encodes one benchmark on one line: its name, the fixed
// properties carried over from its previous entry (sorted), each
// metric's median, and a "range" object of [min, max] per metric.
func resultEntry(b *bench, prev map[string]json.RawMessage) string {
	var e, rng bytes.Buffer
	name, _ := json.Marshal(b.name)
	fmt.Fprintf(&e, `{"name": %s`, name)
	var fixed []string
	for k := range prev {
		if k != "name" && k != "range" && !metricKey(k) {
			fixed = append(fixed, k)
		}
	}
	slices.Sort(fixed)
	for _, k := range fixed {
		fmt.Fprintf(&e, `, %q: %s`, k, prev[k])
	}
	for i, m := range b.metrics {
		fmt.Fprintf(&e, `, %q: %s`, m.key, num(median(m.values)))
		if i > 0 {
			rng.WriteString(", ")
		}
		fmt.Fprintf(&rng, `%q: [%s, %s]`, m.key, num(slices.Min(m.values)), num(slices.Max(m.values)))
	}
	fmt.Fprintf(&e, `, "range": {%s}}`, rng.String())
	return e.String()
}

// num formats a metric value as its shortest JSON number.
func num(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}
