package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: wiban/internal/fleet
BenchmarkFleetWorkers4-2   	      30	  40000000 ns/op	   9000000 events/s	         0 phase1-ms	      5000 runs/s	  212000 B/op	     830 allocs/op
BenchmarkFleetWorkers4-2   	      30	  44000000 ns/op	   8000000 events/s	         0 phase1-ms	      4500 runs/s	  212100 B/op	     831 allocs/op
BenchmarkFleetWorkers4-2   	      30	  38000000 ns/op	   9500000 events/s	         0 phase1-ms	      5200 runs/s	  212050 B/op	     832 allocs/op
PASS
ok  	wiban/internal/fleet	10.0s
pkg: wiban/internal/telemetry
BenchmarkWriterConsume-2   	 1000000	      1018 ns/op	    981894 records/s	     523 B/op	       0 allocs/op
ok  	wiban/internal/telemetry	2.0s
`

const sampleFile = `{
  "benchmark": "old",
  "workload": "w",
  "recorded": "2026-07-27",
  "go": "go1.0",
  "cpus": 1,
  "note": "n",
  "budgets": {
    "BenchmarkFleetWorkers4": {"allocs_per_op_max": 8000, "bytes_per_op_max": 3000000}
  },
  "results": [
    {"name": "BenchmarkFleetWorkers4", "workers": 4, "ns_per_op": 1, "runs_per_sec": 1, "bytes_per_op": 1, "allocs_per_op": 1}
  ]
}`

func TestParseBench(t *testing.T) {
	benches, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 2 || benches[0].name != "BenchmarkFleetWorkers4" || benches[1].name != "BenchmarkWriterConsume" {
		t.Fatalf("parsed %d benchmarks: %+v", len(benches), benches)
	}
	var keys []string
	for _, m := range benches[0].metrics {
		keys = append(keys, m.key)
		if len(m.values) != 3 {
			t.Errorf("%s: %d values, want 3", m.key, len(m.values))
		}
	}
	if got := strings.Join(keys, " "); got != "ns_per_op events_per_sec phase1_ms runs_per_sec bytes_per_op allocs_per_op" {
		t.Errorf("metric keys %q", got)
	}
	if m := median(benches[0].metrics[0].values); m != 40000000 {
		t.Errorf("median ns/op %v, want 40000000", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even-count median %v, want 2.5", m)
	}
}

func TestRewriteKeepsBudgetsAndProperties(t *testing.T) {
	benches, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := rewrite([]byte(sampleFile), benches, header{Benchmark: "go test", Recorded: "2026-10-17", Go: "go1.24.0 linux/amd64", CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	budgets := `{
    "BenchmarkFleetWorkers4": {"allocs_per_op_max": 8000, "bytes_per_op_max": 3000000}
  }`
	if !bytes.Contains(doc, []byte(`"budgets": `+budgets)) {
		t.Errorf("budgets not copied byte for byte:\n%s", doc)
	}
	var got struct {
		Recorded string                   `json:"recorded"`
		CPUs     int                      `json:"cpus"`
		Count    int                      `json:"count"`
		Note     string                   `json:"note"`
		Results  []map[string]interface{} `json:"results"`
	}
	if err := json.Unmarshal(doc, &got); err != nil {
		t.Fatalf("rewritten file is not JSON: %v\n%s", err, doc)
	}
	if got.Recorded != "2026-10-17" || got.CPUs != 2 || got.Count != runs || got.Note != "n" {
		t.Errorf("header %+v", got)
	}
	w := got.Results[0]
	if w["workers"] != 4.0 || w["ns_per_op"] != 40000000.0 || w["runs_per_sec"] != 5000.0 || w["allocs_per_op"] != 831.0 {
		t.Errorf("Workers4 entry %v", w)
	}
	rng, _ := w["range"].(map[string]interface{})
	if r, _ := rng["ns_per_op"].([]interface{}); len(r) != 2 || r[0] != 38000000.0 || r[1] != 44000000.0 {
		t.Errorf("ns_per_op range %v, want [38000000 44000000]", rng["ns_per_op"])
	}
	if c := got.Results[1]; c["name"] != "BenchmarkWriterConsume" || c["records_per_sec"] != 981894.0 || c["allocs_per_op"] != 0.0 {
		t.Errorf("WriterConsume entry %v", c)
	}
}
