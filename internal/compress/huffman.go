package compress

import (
	"container/heap"
	"sort"
)

// Canonical Huffman coding over bytes: the entropy back-end for the frame
// codec and a standalone general-purpose compressor. The header carries
// only the 256 code lengths; codes are reconstructed canonically on both
// sides.

// huffNode is a node in the code-construction tree.
type huffNode struct {
	weight      uint64
	symbol      int // -1 for internal
	left, right *huffNode
	order       int // tie-breaker for determinism
}

type huffHeap []*huffNode

func (h huffHeap) Len() int { return len(h) }
func (h huffHeap) Less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight < h[j].weight
	}
	return h[i].order < h[j].order
}
func (h huffHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *huffHeap) Push(x any)   { *h = append(*h, x.(*huffNode)) }
func (h *huffHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// codeLengths builds Huffman code lengths from byte frequencies.
func codeLengths(freq *[256]uint64) [256]uint8 {
	var lengths [256]uint8
	var hp huffHeap
	order := 0
	for s, f := range freq {
		if f > 0 {
			hp = append(hp, &huffNode{weight: f, symbol: s, order: order})
			order++
		}
	}
	switch len(hp) {
	case 0:
		return lengths
	case 1:
		lengths[hp[0].symbol] = 1
		return lengths
	}
	heap.Init(&hp)
	for hp.Len() > 1 {
		a := heap.Pop(&hp).(*huffNode)
		b := heap.Pop(&hp).(*huffNode)
		heap.Push(&hp, &huffNode{
			weight: a.weight + b.weight, symbol: -1,
			left: a, right: b, order: order,
		})
		order++
	}
	root := hp[0]
	var walk func(n *huffNode, depth uint8)
	walk = func(n *huffNode, depth uint8) {
		if n.symbol >= 0 {
			lengths[n.symbol] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(root, 0)
	return lengths
}

// canonicalCodes assigns canonical codes from lengths: symbols sorted by
// (length, symbol) receive consecutive codes.
func canonicalCodes(lengths *[256]uint8) (codes [256]uint64, ok bool) {
	type sym struct {
		s int
		l uint8
	}
	var syms []sym
	for s, l := range lengths {
		if l > 0 {
			if l > 57 {
				return codes, false // would overflow the bit accumulator
			}
			syms = append(syms, sym{s, l})
		}
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].l != syms[j].l {
			return syms[i].l < syms[j].l
		}
		return syms[i].s < syms[j].s
	})
	var code uint64
	var prevLen uint8
	for _, sm := range syms {
		code <<= sm.l - prevLen
		prevLen = sm.l
		codes[sm.s] = code
		code++
	}
	return codes, true
}

// HuffmanEncode compresses src with a canonical Huffman code. The format
// is: uvarint(len(src)), 256 raw code-length bytes, then the bitstream.
// For src whose coded form would exceed the raw size the caller should
// fall back; this function always encodes.
func HuffmanEncode(src []byte) []byte {
	out := AppendUvarint(nil, uint64(len(src)))
	var freq [256]uint64
	for _, b := range src {
		freq[b]++
	}
	lengths := codeLengths(&freq)
	codes, ok := canonicalCodes(&lengths)
	if !ok {
		// Pathological depth: flatten to 8-bit fixed codes.
		for i := range lengths {
			lengths[i] = 8
		}
		codes, _ = canonicalCodes(&lengths)
	}
	out = append(out, lengths[:]...)
	w := &bitWriter{buf: out}
	for _, b := range src {
		w.writeBits(codes[b], uint(lengths[b]))
	}
	return w.bytes()
}

// HuffmanDecode reverses HuffmanEncode.
func HuffmanDecode(src []byte) ([]byte, error) {
	n, k := DecodeUvarint(src)
	if k == 0 || n > 1<<30 {
		return nil, ErrCorrupt
	}
	src = src[k:]
	if len(src) < 256 {
		return nil, ErrCorrupt
	}
	var lengths [256]uint8
	copy(lengths[:], src[:256])
	src = src[256:]
	codes, ok := canonicalCodes(&lengths)
	if !ok {
		return nil, ErrCorrupt
	}

	// Build a decode table: (length, code) → symbol.
	type key struct {
		l uint8
		c uint64
	}
	table := make(map[key]byte)
	maxLen := uint8(0)
	for s, l := range lengths {
		if l > 0 {
			table[key{l, codes[s]}] = byte(s)
			if l > maxLen {
				maxLen = l
			}
		}
	}
	if n > 0 && maxLen == 0 {
		return nil, ErrCorrupt
	}

	r := &bitReader{buf: src}
	out := make([]byte, 0, n)
	for uint64(len(out)) < n {
		var code uint64
		var l uint8
		found := false
		for l < maxLen {
			b, err := r.readBits(1)
			if err != nil {
				return nil, err
			}
			code = code<<1 | b
			l++
			if s, ok := table[key{l, code}]; ok {
				out = append(out, s)
				found = true
				break
			}
		}
		if !found {
			return nil, ErrCorrupt
		}
	}
	return out, nil
}
