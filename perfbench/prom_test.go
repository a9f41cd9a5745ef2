package main

import "testing"

func TestParseProm(t *testing.T) {
	text := `# HELP iobfleetd_sweeps_completed_total Sweeps finished with a fingerprint.
# TYPE iobfleetd_sweeps_completed_total counter
iobfleetd_sweeps_completed_total 3

iobfleetd_sweep_duration_seconds_bucket{le="0.1"} 1
iobfleetd_sweep_duration_seconds_bucket{le="+Inf"} 3
iobfleetd_sweep_duration_seconds_sum 2.5
iobfleetd_sweep_duration_seconds_count 3
odd_labels{path="a b",q="}"} 1.5e+06 1700000000000
`
	s, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"iobfleetd_sweeps_completed_total":                   3,
		`iobfleetd_sweep_duration_seconds_bucket{le="+Inf"}`: 3,
		"iobfleetd_sweep_duration_seconds_sum":               2.5,
		`odd_labels{path="a b",q="}"}`:                       1.5e6,
	} {
		if got, ok := s[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	if len(s) != 6 {
		t.Errorf("parsed %d series, want 6", len(s))
	}
	if m := histMean(s, "iobfleetd_sweep_duration_seconds"); m != 2.5/3 {
		t.Errorf("histMean = %v", m)
	}

	before := scrape{"a": 1, "b": 5}
	after := scrape{"a": 4, "b": 5, "c": 2}
	d := delta(before, after)
	if d["a"] != 3 || d["b"] != 0 || d["c"] != 2 {
		t.Errorf("delta = %v", d)
	}
	if got := sum([]scrape{d, {"a": 1}}, "a"); got != 4 {
		t.Errorf("sum = %v", got)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, text := range []string{"novalue\n", "x{le=\"1\" 3\n", "x notanumber\n", "x 1 2 3\n"} {
		if _, err := parseProm(text); err == nil {
			t.Errorf("parseProm(%q) accepted it", text)
		}
	}
}
