package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// scrape is one parsed Prometheus text exposition: every sample keyed by
// its series as printed, name plus label set (`name` or
// `name{k="v",...}`).
type scrape map[string]float64

// parseProm parses the Prometheus text format 0.0.4 the daemon's /metrics
// serves. Comment and blank lines are skipped; a sample line is the
// series, whitespace, the value and an optional timestamp. Label values
// may hold spaces, so the series ends at the closing brace, not at the
// first blank.
func parseProm(text string) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var series, rest string
		if i := strings.IndexByte(line, '{'); i >= 0 && i < strings.IndexAny(line+" ", " \t") {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("metrics line %d: unclosed label set: %q", n, line)
			}
			series, rest = line[:j+1], line[j+1:]
		} else {
			k := strings.IndexAny(line, " \t")
			if k < 0 {
				return nil, fmt.Errorf("metrics line %d: no value: %q", n, line)
			}
			series, rest = line[:k], line[k:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 || len(fields) > 2 {
			return nil, fmt.Errorf("metrics line %d: want value [timestamp]: %q", n, line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		out[series] = v
	}
	return out, sc.Err()
}

// delta is after minus before, series by series; a series absent before
// counts from zero.
func delta(before, after scrape) scrape {
	out := scrape{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds the same series over several scrapes (one per daemon).
func sum(scrapes []scrape, series string) float64 {
	total := 0.0
	for _, s := range scrapes {
		total += s[series]
	}
	return total
}

// histMean is a histogram's mean observation from its _sum and _count
// series (0 when nothing was observed).
func histMean(s scrape, name string) float64 {
	if c := s[name+"_count"]; c > 0 {
		return s[name+"_sum"] / c
	}
	return 0
}
