package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"

	"wiban/internal/telemetry"
)

// storeFile is one completed series store the read side works on: the
// coordinator's file and its committed bytes as the store endpoint
// serves them.
type storeFile struct {
	sweep     string
	path      string
	committed []byte
	meta      telemetry.Meta
}

// loadStore reads a completed store's committed bytes and metadata.
func loadStore(sweep, path string) (*storeFile, error) {
	committed, err := committedPrefix(path)
	if err != nil {
		return nil, err
	}
	meta, _, _, err := telemetry.Committed(path)
	if err != nil {
		return nil, err
	}
	return &storeFile{sweep: sweep, path: path, committed: committed, meta: meta}, nil
}

// queryKinds are the three query shapes; seriesMetrics the columns a
// query may aggregate.
var (
	queryKinds    = []string{"full", "window", "cell"}
	seriesMetrics = []string{"charge", "queue", "per", "collisions"}
)

// randomQuery draws a query of the given kind over a store: a whole
// column, a ten-second window of one, or one cell's samples.
func randomQuery(rng *rand.Rand, kind string, m telemetry.Meta) telemetry.Query {
	q := telemetry.Query{Metric: seriesMetrics[rng.IntN(len(seriesMetrics))], Cell: -1, Node: -1}
	switch kind {
	case "window":
		spanMS := int64(m.SpanSeconds * 1000)
		q.FromMS = rng.Int64N(max(1, spanMS-10_000))
		q.ToMS = q.FromMS + 10_000
	case "cell":
		q.Cell = rng.IntN(max(1, m.Cells))
	}
	return q
}

// queryCheck is one query as run, kept for verification after the
// timed window.
type queryCheck struct {
	store int
	q     telemetry.Query
	got   telemetry.SeriesStats
}

// expect folds q over one decoded record exactly as the store's query
// path documents: cell, node and inclusive time filters, NaN samples
// counted as gaps.
type expect struct {
	points, gaps  int
	sum, min, max float64
}

func (e *expect) fold(q *telemetry.Query, rec *telemetry.Record) {
	if q.Cell >= 0 && rec.Cell != q.Cell {
		return
	}
	for i := range rec.Series {
		p := &rec.Series[i]
		if q.Node >= 0 && p.Node != q.Node {
			continue
		}
		if p.TimeMS < q.FromMS || (q.ToMS > 0 && p.TimeMS > q.ToMS) {
			continue
		}
		var v float64
		switch q.Metric {
		case "charge":
			v = p.Charge
		case "queue":
			v = float64(p.QueueDepth)
		case "per":
			v = p.LinkPER
		case "collisions":
			v = p.CollisionRate
		}
		if v != v { // NaN: a window without attempts
			e.gaps++
			continue
		}
		if e.points == 0 || v < e.min {
			e.min = v
		}
		if e.points == 0 || v > e.max {
			e.max = v
		}
		e.points++
		e.sum += v
	}
}

// verifyQueries checks every query run against one store with a single
// sequential decode of it: the index-pruned answer must equal a brute
// force fold over every record, bit for bit.
func verifyQueries(path string, checks []*queryCheck) error {
	if len(checks) == 0 {
		return nil
	}
	r, err := telemetry.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	want := make([]expect, len(checks))
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for i, c := range checks {
			want[i].fold(&c.q, &rec)
		}
	}
	for i, c := range checks {
		w, g := want[i], c.got
		if g.Points != w.points || g.Gaps != w.gaps || g.Sum != w.sum || g.Min != w.min || g.Max != w.max {
			return fmt.Errorf("query %+v on %s: got points=%d gaps=%d sum=%v min=%v max=%v, want %d %d %v %v %v",
				c.q, path, g.Points, g.Gaps, g.Sum, g.Min, g.Max, w.points, w.gaps, w.sum, w.min, w.max)
		}
	}
	return nil
}

// checkFetch holds a download to the committed bytes it should equal.
func checkFetch(s *storeFile, from int64, got []byte, off int64) error {
	if off != int64(len(s.committed)) {
		return fmt.Errorf("store %s: committed offset %d, want %d", s.sweep, off, len(s.committed))
	}
	if !bytes.Equal(got, s.committed[from:]) {
		return fmt.Errorf("store %s: %d bytes from %d differ from the committed store", s.sweep, len(got), from)
	}
	return nil
}

// readProbe times the store's read path on each store: open, a full
// sequential decode, and — for series stores — one query of each shape.
func readProbe(tr *tracer, rng *rand.Rand, stores []*storeFile) (records int, err error) {
	for _, s := range stores {
		var r *telemetry.Reader
		id := tr.begin("telemetry.Open", s.sweep, 0)
		r, err = telemetry.Open(s.path)
		tr.end(id)
		if err != nil {
			return records, err
		}
		id = tr.begin("telemetry.scan", s.sweep, 0)
		for {
			if _, err = r.Next(); err != nil {
				break
			}
			records++
		}
		tr.end(id)
		r.Close()
		if err != io.EOF {
			return records, err
		}
		if !s.meta.Series() {
			continue
		}
		for _, kind := range queryKinds {
			q := randomQuery(rng, kind, s.meta)
			id := tr.begin("telemetry.QueryStore."+kind, s.sweep, 0)
			_, err = telemetry.QueryStore(s.path, q)
			tr.end(id)
			if err != nil {
				return records, err
			}
		}
	}
	return records, nil
}
