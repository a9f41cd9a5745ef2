package telemetry

import (
	"fmt"
	"os"

	"wiban/internal/compress"
)

// Series and index frames (FormatV3).
//
// A series frame carries the in-run samples of the record block it is
// paired with — the writer appends the pair in a single write, so a torn
// tail can never leave a committed record block without its series. Body
// layout after the kind selector:
//
//	uvarint firstWearer | uvarint records | uvarint totalPoints
//	per-record column: points per record (zigzag-delta varint)
//	point columns, flattened in (record, time, node) order:
//	    node, queueDepth (zigzag-delta varint)
//	    timeMS (delta-of-delta varint — fixed-cadence stamps cost ~1 byte)
//	    charge, linkPER, collisionRate (XOR-prev varint)
//
// The index frame is the last frame of a completely written store: one
// entry per record block with file offsets and the block's time/cell/node
// ranges, so a query can seek straight to the blocks overlapping its
// predicate. It is deliberately written *after* the final checkpoint and
// never covered by one — resume discards and deterministically rewrites
// it, keeping kill/resume stores byte-identical.

// encodeSeriesFrame renders the samples attached to recs (one committed
// block) as a framed series payload appended to dst.
func encodeSeriesFrame(dst []byte, recs []Record) []byte {
	total := 0
	for i := range recs {
		total += len(recs[i].Series)
	}
	payload := compress.AppendUvarint(nil, kindSeries)
	payload = compress.AppendUvarint(payload, uint64(recs[0].Wearer))
	payload = compress.AppendUvarint(payload, uint64(len(recs)))
	payload = compress.AppendUvarint(payload, uint64(total))

	ints := make([]int64, 0, total)
	floats := make([]float64, 0, total)

	ints = ints[:0]
	for i := range recs {
		ints = append(ints, int64(len(recs[i].Series)))
	}
	payload = compress.AppendDeltaInts(payload, ints)

	for _, get := range []func(p *SeriesPoint) int64{
		func(p *SeriesPoint) int64 { return int64(p.Node) },
		func(p *SeriesPoint) int64 { return int64(p.QueueDepth) },
	} {
		ints = ints[:0]
		for i := range recs {
			for j := range recs[i].Series {
				ints = append(ints, get(&recs[i].Series[j]))
			}
		}
		payload = compress.AppendDeltaInts(payload, ints)
	}
	ints = ints[:0]
	for i := range recs {
		for j := range recs[i].Series {
			ints = append(ints, recs[i].Series[j].TimeMS)
		}
	}
	payload = compress.AppendDelta2Ints(payload, ints)
	for _, get := range []func(p *SeriesPoint) float64{
		func(p *SeriesPoint) float64 { return p.Charge },
		func(p *SeriesPoint) float64 { return p.LinkPER },
		func(p *SeriesPoint) float64 { return p.CollisionRate },
	} {
		floats = floats[:0]
		for i := range recs {
			for j := range recs[i].Series {
				floats = append(floats, get(&recs[i].Series[j]))
			}
		}
		payload = compress.AppendXorFloats(payload, floats)
	}
	return appendFrame(dst, payload)
}

// decodeSeriesBody inverts encodeSeriesFrame on a verified body (kind
// already stripped) and attaches the points to recs, which must be the
// records of the paired block.
func decodeSeriesBody(body []byte, recs []Record) error {
	pos := 0
	header := make([]uint64, 3)
	for i := range header {
		v, n := compress.DecodeUvarint(body[pos:])
		if n == 0 {
			return fmt.Errorf("%w: series header", ErrCorrupt)
		}
		header[i] = v
		pos += n
	}
	first, count, total := int(header[0]), int(header[1]), int(header[2])
	if count != len(recs) || len(recs) == 0 || first != recs[0].Wearer {
		return fmt.Errorf("%w: series frame covers wearers [%d,+%d), paired block holds [%d,+%d)",
			ErrCorrupt, first, count, firstWearerOf(recs), len(recs))
	}
	if total < 0 || total > maxBlockPayload {
		return fmt.Errorf("%w: implausible series point count %d", ErrCorrupt, total)
	}
	// Every point costs at least one byte in each of the six columns and
	// every record one count byte; reject forged headers before allocating.
	if count+6*total > len(body) {
		return fmt.Errorf("%w: series header claims %d points in %d payload bytes",
			ErrCorrupt, total, len(body))
	}

	intCol := func(n int, dec func([]byte, []int64) (int, error)) ([]int64, error) {
		col := make([]int64, n)
		used, err := dec(body[pos:], col)
		pos += used
		return col, err
	}
	counts, err := intCol(count, compress.DecodeDeltaInts)
	if err != nil {
		return err
	}
	sum := 0
	for _, c := range counts {
		if c < 0 {
			return fmt.Errorf("%w: negative series count", ErrCorrupt)
		}
		sum += int(c)
	}
	if sum != total {
		return fmt.Errorf("%w: series counts sum %d, header says %d", ErrCorrupt, sum, total)
	}
	nodes, err := intCol(total, compress.DecodeDeltaInts)
	if err != nil {
		return err
	}
	queues, err := intCol(total, compress.DecodeDeltaInts)
	if err != nil {
		return err
	}
	stamps, err := intCol(total, compress.DecodeDelta2Ints)
	if err != nil {
		return err
	}
	var cols [3][]float64
	for i := range cols {
		cols[i] = make([]float64, total)
		used, err := compress.DecodeXorFloats(body[pos:], cols[i])
		if err != nil {
			return err
		}
		pos += used
	}
	if pos != len(body) {
		return fmt.Errorf("%w: %d trailing series bytes", ErrCorrupt, len(body)-pos)
	}

	points := make([]SeriesPoint, total)
	off := 0
	for i := range recs {
		pc := int(counts[i])
		recs[i].Series = points[off : off+pc : off+pc]
		for j := 0; j < pc; j++ {
			points[off+j] = SeriesPoint{
				Node:          int(nodes[off+j]),
				TimeMS:        stamps[off+j],
				Charge:        cols[0][off+j],
				QueueDepth:    int(queues[off+j]),
				LinkPER:       cols[1][off+j],
				CollisionRate: cols[2][off+j],
			}
		}
		off += pc
	}
	return nil
}

// firstWearerOf is a nil-safe accessor for error messages.
func firstWearerOf(recs []Record) int {
	if len(recs) == 0 {
		return -1
	}
	return recs[0].Wearer
}

// indexEntry summarizes one committed record block for query pruning.
type indexEntry struct {
	recOffset   int64 // file offset of the record frame
	serOffset   int64 // file offset of the paired series frame; 0 when the store has no series
	firstWearer int
	records     int
	points      int   // series points in the paired frame
	minTimeMS   int64 // sample-time range of the paired frame (0,0 when pointless)
	maxTimeMS   int64
	minCell     int // cell range of the block's records
	maxCell     int
	maxNodes    int // widest node count in the block — bounds the node-class label space
}

// entryFor summarizes a committed block from its decoded records.
func entryFor(recOffset, serOffset int64, recs []Record) indexEntry {
	e := indexEntry{
		recOffset:   recOffset,
		serOffset:   serOffset,
		firstWearer: recs[0].Wearer,
		records:     len(recs),
		minCell:     recs[0].Cell,
		maxCell:     recs[0].Cell,
	}
	for i := range recs {
		r := &recs[i]
		if r.Cell < e.minCell {
			e.minCell = r.Cell
		}
		if r.Cell > e.maxCell {
			e.maxCell = r.Cell
		}
		if len(r.Nodes) > e.maxNodes {
			e.maxNodes = len(r.Nodes)
		}
		for j := range r.Series {
			t := r.Series[j].TimeMS
			if e.points == 0 || t < e.minTimeMS {
				e.minTimeMS = t
			}
			if e.points == 0 || t > e.maxTimeMS {
				e.maxTimeMS = t
			}
			e.points++
		}
	}
	return e
}

// encodeIndexFrame renders the per-block index as a framed payload.
func encodeIndexFrame(entries []indexEntry) []byte {
	payload := compress.AppendUvarint(nil, kindIndex)
	payload = compress.AppendUvarint(payload, uint64(len(entries)))
	cols := []func(e *indexEntry) int64{
		func(e *indexEntry) int64 { return e.recOffset },
		func(e *indexEntry) int64 { return e.serOffset },
		func(e *indexEntry) int64 { return int64(e.firstWearer) },
		func(e *indexEntry) int64 { return int64(e.records) },
		func(e *indexEntry) int64 { return int64(e.points) },
		func(e *indexEntry) int64 { return e.minTimeMS },
		func(e *indexEntry) int64 { return e.maxTimeMS },
		func(e *indexEntry) int64 { return int64(e.minCell) },
		func(e *indexEntry) int64 { return int64(e.maxCell) },
		func(e *indexEntry) int64 { return int64(e.maxNodes) },
	}
	ints := make([]int64, len(entries))
	for _, get := range cols {
		for i := range entries {
			ints[i] = get(&entries[i])
		}
		payload = compress.AppendDeltaInts(payload, ints)
	}
	return appendFrame(nil, payload)
}

// decodeIndexBody inverts encodeIndexFrame on a verified body (kind
// already stripped).
func decodeIndexBody(body []byte) ([]indexEntry, error) {
	n, used := compress.DecodeUvarint(body)
	if used == 0 {
		return nil, fmt.Errorf("%w: index header", ErrCorrupt)
	}
	pos := used
	count := int(n)
	// Ten varint columns of count elements, ≥ 1 byte per element.
	if count < 0 || count > maxBlockPayload || 10*count > len(body) {
		return nil, fmt.Errorf("%w: implausible index entry count %d", ErrCorrupt, count)
	}
	var cols [10][]int64
	for i := range cols {
		cols[i] = make([]int64, count)
		used, err := compress.DecodeDeltaInts(body[pos:], cols[i])
		if err != nil {
			return nil, err
		}
		pos += used
	}
	if pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing index bytes", ErrCorrupt, len(body)-pos)
	}
	entries := make([]indexEntry, count)
	for i := range entries {
		entries[i] = indexEntry{
			recOffset:   cols[0][i],
			serOffset:   cols[1][i],
			firstWearer: int(cols[2][i]),
			records:     int(cols[3][i]),
			points:      int(cols[4][i]),
			minTimeMS:   cols[5][i],
			maxTimeMS:   cols[6][i],
			minCell:     int(cols[7][i]),
			maxCell:     int(cols[8][i]),
			maxNodes:    int(cols[9][i]),
		}
	}
	return entries, nil
}

// readSeriesFrameAt reads the series frame at pos and attaches its points
// to recs, returning the offset past the frame.
func readSeriesFrameAt(f *os.File, pos, limit int64, recs []Record) (int64, error) {
	payload, end, err := readFramePayload(f, pos, limit)
	if err != nil {
		return 0, err
	}
	kind, body, err := splitKind(payload, FormatV3)
	if err != nil {
		return 0, err
	}
	if kind != kindSeries {
		return 0, fmt.Errorf("%w: frame kind %d where a series frame was expected", ErrCorrupt, kind)
	}
	if err := decodeSeriesBody(body, recs); err != nil {
		return 0, err
	}
	return end, nil
}

// readPairAt reads the record frame at pos and, in a series-enabled
// store, the series frame committed with it, attaching its samples to the
// records. serOff is the series frame's offset (0 without series) and end
// the offset past the pair. The pair was written in one commit, so a
// record frame without its series frame is an error like any other
// damage.
func readPairAt(f *os.File, pos, limit int64, meta Meta) (recs []Record, serOff, end int64, err error) {
	recs, end, err = readFrameAt(f, pos, limit, meta.Version)
	if err != nil || !meta.Series() {
		return recs, 0, end, err
	}
	serOff = end
	if end, err = readSeriesFrameAt(f, serOff, limit, recs); err != nil {
		return nil, 0, 0, err
	}
	return recs, serOff, end, nil
}
