package fleet

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"wiban/internal/bannet"
	"wiban/internal/units"
)

// The exact batch path below is the oracle the streaming aggregator is
// tested against: it materializes every per-wearer report (O(fleet)
// memory) and takes exact sorted-sample percentiles, where the engine's
// StreamAggregator keeps histogram estimates in constant memory.

// NewDist summarizes samples. The slice is sorted in place; an empty
// sample yields the zero Dist.
func NewDist(samples []float64) Dist {
	if len(samples) == 0 {
		return Dist{}
	}
	// Sum before sorting so the mean reflects the caller's (wearer-index)
	// order — a fixed order is what makes the aggregate bit-reproducible.
	var sum float64
	for _, s := range samples {
		sum += s
	}
	sort.Float64s(samples)
	n := len(samples)
	return Dist{
		N:    n,
		Min:  samples[0],
		Max:  samples[n-1],
		Mean: sum / float64(n),
		P10:  samples[(n*10)/100],
		P50:  samples[n/2],
		P90:  samples[(n*90)/100],
		P99:  samples[(n*99)/100],
	}
}

// Aggregate merges per-wearer reports (indexed by wearer) into the fleet
// report. It iterates in slice order, which callers must keep equal to
// wearer-index order for reproducibility.
func Aggregate(span units.Duration, reports []*bannet.Report) *Report {
	rep := &Report{Wearers: len(reports), Span: span}
	var (
		delivery  []float64
		lifeHours []float64
		latP50    []float64
		latP99    []float64
		hubUtil   []float64
		perpetual int
		died      int
	)
	for _, r := range reports {
		rep.Events += r.Events
		rep.HubRxBits += r.HubRxBits
		hubUtil = append(hubUtil, r.HubUtilization)
		for i := range r.Nodes {
			n := &r.Nodes[i]
			rep.Nodes++
			rep.PacketsGenerated += n.PacketsGenerated
			rep.PacketsDelivered += n.PacketsDelivered
			rep.PacketsDropped += n.PacketsDropped
			rep.Transmissions += n.Transmissions
			rep.BitsDelivered += n.BitsDelivered
			delivery = append(delivery, n.DeliveryRate())
			lifeHours = append(lifeHours, float64(n.ProjectedLife)/float64(units.Hour))
			if n.PacketsDelivered > 0 {
				latP50 = append(latP50, float64(n.LatencyP50)*1e3)
				latP99 = append(latP99, float64(n.LatencyP99)*1e3)
			}
			if n.Perpetual {
				perpetual++
			}
			if n.Died {
				died++
			}
		}
	}
	rep.DeliveryRate = NewDist(delivery)
	rep.BatteryLifeHours = NewDist(lifeHours)
	rep.LatencyP50ms = NewDist(latP50)
	rep.LatencyP99ms = NewDist(latP99)
	rep.HubUtilization = NewDist(hubUtil)
	if rep.Nodes > 0 {
		rep.PerpetualFraction = float64(perpetual) / float64(rep.Nodes)
		rep.DiedFraction = float64(died) / float64(rep.Nodes)
	}
	return rep
}

// RunReports is the opt-in full-report path: it materializes every
// per-wearer report (O(fleet) memory) and aggregates them with the exact
// sorted-sample percentiles of Aggregate. The materialized reports carry
// no Schedule — the schedule is per-kernel arena state (see
// bannet.Sim.Schedule). Resume (Start > 0) is not supported here —
// partial sweeps only make sense streamed.
func (f *Fleet) RunReports() ([]*bannet.Report, *Report, Perf, error) {
	if f.Start != 0 || f.End != 0 {
		return nil, nil, Perf{}, fmt.Errorf("fleet: RunReports does not support a sub-range [%d,%d); stream it instead", f.Start, f.End)
	}
	if f.Wearers <= 0 {
		return nil, nil, Perf{}, fmt.Errorf("fleet: non-positive population %d", f.Wearers)
	}
	reports := make([]*bannet.Report, 0, f.Wearers)
	perf, err := f.stream(func(w int, out *wearerOut) error {
		// The emit callback borrows out until it returns (the buffer goes
		// back to the window pool), so materializing means copying.
		rep := out.rep
		rep.Nodes = append([]bannet.NodeStats(nil), out.rep.Nodes...)
		rep.Schedule = nil
		reports = append(reports, &rep)
		return nil
	})
	if err != nil {
		return nil, nil, Perf{}, err
	}
	return reports, Aggregate(f.Span, reports), perf, nil
}

// TestDist checks the summary statistics on a known sample.
func TestDist(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(99 - i) // reversed, so NewDist must sort
	}
	d := NewDist(samples)
	if d.N != 100 || d.Min != 0 || d.Max != 99 {
		t.Fatalf("N/Min/Max = %d/%v/%v", d.N, d.Min, d.Max)
	}
	if d.Mean != 49.5 {
		t.Errorf("Mean = %v, want 49.5", d.Mean)
	}
	if d.P10 != 10 || d.P50 != 50 || d.P90 != 90 || d.P99 != 99 {
		t.Errorf("percentiles = %v/%v/%v/%v, want 10/50/90/99", d.P10, d.P50, d.P90, d.P99)
	}
	if zero := NewDist(nil); zero.N != 0 || zero.String() != "n=0" {
		t.Errorf("empty Dist = %+v (%q)", zero, zero.String())
	}
}

// TestAggregate merges two hand-built reports and checks every derived
// figure.
func TestAggregate(t *testing.T) {
	r1 := &bannet.Report{
		Events: 100, HubRxBits: 8000, HubUtilization: 0.5,
		Nodes: []bannet.NodeStats{
			{Name: "a", PacketsGenerated: 10, PacketsDelivered: 9, PacketsDropped: 1,
				Transmissions: 12, BitsDelivered: 9000, ProjectedLife: 2 * units.Hour,
				LatencyP50: 10 * units.Millisecond, LatencyP99: 20 * units.Millisecond,
				Perpetual: true},
		},
	}
	r2 := &bannet.Report{
		Events: 50, HubRxBits: 4000, HubUtilization: 0.25,
		Nodes: []bannet.NodeStats{
			{Name: "b", PacketsGenerated: 4, PacketsDelivered: 2, PacketsDropped: 2,
				Transmissions: 6, BitsDelivered: 2000, ProjectedLife: 4 * units.Hour,
				LatencyP50: 30 * units.Millisecond, LatencyP99: 40 * units.Millisecond,
				Died: true},
			{Name: "idle", ProjectedLife: 6 * units.Hour}, // no traffic: excluded from latency dists
		},
	}
	rep := Aggregate(units.Minute, []*bannet.Report{r1, r2})
	if rep.Wearers != 2 || rep.Nodes != 3 || rep.Events != 150 || rep.HubRxBits != 12000 {
		t.Fatalf("headline: %+v", rep)
	}
	if rep.PacketsGenerated != 14 || rep.PacketsDelivered != 11 ||
		rep.PacketsDropped != 3 || rep.Transmissions != 18 || rep.BitsDelivered != 11000 {
		t.Fatalf("traffic totals: %+v", rep)
	}
	if rep.DeliveryRate.N != 3 || rep.DeliveryRate.Min != 0.5 || rep.DeliveryRate.Max != 1 {
		t.Errorf("delivery dist: %+v", rep.DeliveryRate)
	}
	if rep.LatencyP50ms.N != 2 || rep.LatencyP50ms.Min != 10 || rep.LatencyP50ms.Max != 30 {
		t.Errorf("latency p50 dist: %+v", rep.LatencyP50ms)
	}
	if rep.BatteryLifeHours.Min != 2 || rep.BatteryLifeHours.Max != 6 {
		t.Errorf("battery dist: %+v", rep.BatteryLifeHours)
	}
	if math.Abs(rep.PerpetualFraction-1.0/3) > 1e-12 || math.Abs(rep.DiedFraction-1.0/3) > 1e-12 {
		t.Errorf("fractions: perpetual %v died %v", rep.PerpetualFraction, rep.DiedFraction)
	}
	if rep.HubUtilization.Mean != 0.375 {
		t.Errorf("hub utilization mean = %v", rep.HubUtilization.Mean)
	}
	if s := rep.String(); !strings.Contains(s, "2 wearers, 3 nodes") {
		t.Errorf("String() = %q", s)
	}
	if len(rep.Fingerprint()) != 64 {
		t.Errorf("fingerprint length %d", len(rep.Fingerprint()))
	}
}
