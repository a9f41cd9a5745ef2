package compress

import (
	"fmt"
	"math"
)

// MJPEG-style intraframe video codec: 8×8 DCT-II, JPEG-scaled quantization,
// zigzag scan, DC prediction across blocks, run-length coding of AC zeros,
// and a canonical-Huffman entropy back-end. The paper (§V) names MJPEG
// compression as the in-sensor data reduction for video leaf nodes; this
// codec supplies the measured rate/quality points for those projections.

// jpegLumaQuant is the reference JPEG luminance quantization matrix.
var jpegLumaQuant = [64]int{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// zigzagOrder maps scan position → block index for the 8×8 zigzag.
var zigzagOrder = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// dctCos[u][x] = cos((2x+1)uπ/16), precomputed at init.
var dctCos [8][8]float64

func init() {
	for u := 0; u < 8; u++ {
		for x := 0; x < 8; x++ {
			dctCos[u][x] = math.Cos(float64(2*x+1) * float64(u) * math.Pi / 16)
		}
	}
}

// dctAlpha is the DCT normalization C(u).
func dctAlpha(u int) float64 {
	if u == 0 {
		return 1 / math.Sqrt2
	}
	return 1
}

// fdct8 computes the 2-D DCT-II of an 8×8 block (separable: rows then
// columns).
func fdct8(block *[64]float64) {
	var tmp [64]float64
	for y := 0; y < 8; y++ { // row transform
		for u := 0; u < 8; u++ {
			var s float64
			for x := 0; x < 8; x++ {
				s += block[y*8+x] * dctCos[u][x]
			}
			tmp[y*8+u] = s * dctAlpha(u) / 2
		}
	}
	for u := 0; u < 8; u++ { // column transform
		for v := 0; v < 8; v++ {
			var s float64
			for y := 0; y < 8; y++ {
				s += tmp[y*8+u] * dctCos[v][y]
			}
			block[v*8+u] = s * dctAlpha(v) / 2
		}
	}
}

// idct8 inverts fdct8.
func idct8(block *[64]float64) {
	var tmp [64]float64
	for u := 0; u < 8; u++ { // column inverse
		for y := 0; y < 8; y++ {
			var s float64
			for v := 0; v < 8; v++ {
				s += dctAlpha(v) * block[v*8+u] * dctCos[v][y]
			}
			tmp[y*8+u] = s / 2
		}
	}
	for y := 0; y < 8; y++ { // row inverse
		for x := 0; x < 8; x++ {
			var s float64
			for u := 0; u < 8; u++ {
				s += dctAlpha(u) * tmp[y*8+u] * dctCos[u][x]
			}
			block[y*8+x] = s / 2
		}
	}
}

// FrameCodec encodes fixed-size grayscale frames.
type FrameCodec struct {
	W, H    int
	Quality int // 1..100, JPEG-style
	quant   [64]int
}

// NewFrameCodec returns a codec for w×h 8-bit frames at the given quality.
func NewFrameCodec(w, h, quality int) (*FrameCodec, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("compress: invalid frame size %dx%d", w, h)
	}
	if quality < 1 || quality > 100 {
		return nil, fmt.Errorf("compress: quality %d outside 1..100", quality)
	}
	c := &FrameCodec{W: w, H: h, Quality: quality}
	// JPEG quality scaling.
	scale := 200 - 2*quality
	if quality < 50 {
		scale = 5000 / quality
	}
	for i, q := range jpegLumaQuant {
		v := (q*scale + 50) / 100
		if v < 1 {
			v = 1
		}
		if v > 255 {
			v = 255
		}
		c.quant[i] = v
	}
	return c, nil
}

// blocksAcross returns the padded block grid dimensions.
func (c *FrameCodec) blocksAcross() (bw, bh int) {
	return (c.W + 7) / 8, (c.H + 7) / 8
}

// loadBlock copies the 8×8 block at (bx, by) with edge replication padding
// and level shift to [-128, 127].
func (c *FrameCodec) loadBlock(frame []byte, bx, by int, block *[64]float64) {
	for y := 0; y < 8; y++ {
		sy := by*8 + y
		if sy >= c.H {
			sy = c.H - 1
		}
		for x := 0; x < 8; x++ {
			sx := bx*8 + x
			if sx >= c.W {
				sx = c.W - 1
			}
			block[y*8+x] = float64(frame[sy*c.W+sx]) - 128
		}
	}
}

// storeBlock writes the 8×8 block back, clamping to [0,255] and dropping
// padded pixels.
func (c *FrameCodec) storeBlock(frame []byte, bx, by int, block *[64]float64) {
	for y := 0; y < 8; y++ {
		sy := by*8 + y
		if sy >= c.H {
			continue
		}
		for x := 0; x < 8; x++ {
			sx := bx*8 + x
			if sx >= c.W {
				continue
			}
			v := block[y*8+x] + 128
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			frame[sy*c.W+sx] = byte(v + 0.5)
		}
	}
}

// eobRun is the run-length sentinel marking end-of-block (valid AC runs
// are ≤ 62).
const eobRun = 63

// Encode compresses one frame. The payload (after a small header) is a
// varint stream of DC deltas and (run, level) AC pairs, entropy-coded with
// canonical Huffman.
func (c *FrameCodec) Encode(frame []byte) ([]byte, error) {
	if len(frame) != c.W*c.H {
		return nil, fmt.Errorf("compress: frame size %d, want %d", len(frame), c.W*c.H)
	}
	bw, bh := c.blocksAcross()
	payload := make([]byte, 0, c.W*c.H/4)
	var block [64]float64
	prevDC := 0
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			c.loadBlock(frame, bx, by, &block)
			fdct8(&block)
			// Quantize into zigzag order.
			var q [64]int
			for i := 0; i < 64; i++ {
				q[i] = int(math.Round(block[zigzagOrder[i]] / float64(c.quant[zigzagOrder[i]])))
			}
			// DC predicted from previous block.
			payload = AppendUvarint(payload, zigzag(int64(q[0]-prevDC)))
			prevDC = q[0]
			// AC run-length coding.
			run := 0
			for i := 1; i < 64; i++ {
				if q[i] == 0 {
					run++
					continue
				}
				payload = AppendUvarint(payload, uint64(run))
				payload = AppendUvarint(payload, zigzag(int64(q[i])))
				run = 0
			}
			payload = AppendUvarint(payload, eobRun)
		}
	}
	hdr := AppendUvarint(nil, uint64(c.W))
	hdr = AppendUvarint(hdr, uint64(c.H))
	hdr = AppendUvarint(hdr, uint64(c.Quality))
	return append(hdr, HuffmanEncode(payload)...), nil
}

// Decode reverses Encode. The header dimensions and quality must match the
// codec's configuration.
func (c *FrameCodec) Decode(data []byte) ([]byte, error) {
	w64, k1 := DecodeUvarint(data)
	if k1 == 0 {
		return nil, ErrCorrupt
	}
	data = data[k1:]
	h64, k2 := DecodeUvarint(data)
	if k2 == 0 {
		return nil, ErrCorrupt
	}
	data = data[k2:]
	q64, k3 := DecodeUvarint(data)
	if k3 == 0 {
		return nil, ErrCorrupt
	}
	data = data[k3:]
	if int(w64) != c.W || int(h64) != c.H || int(q64) != c.Quality {
		return nil, fmt.Errorf("compress: stream is %dx%d q%d, codec is %dx%d q%d",
			w64, h64, q64, c.W, c.H, c.Quality)
	}
	payload, err := HuffmanDecode(data)
	if err != nil {
		return nil, err
	}

	frame := make([]byte, c.W*c.H)
	bw, bh := c.blocksAcross()
	pos := 0
	next := func() (uint64, error) {
		v, k := DecodeUvarint(payload[pos:])
		if k == 0 {
			return 0, ErrCorrupt
		}
		pos += k
		return v, nil
	}
	prevDC := 0
	var block [64]float64
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			var q [64]int
			dcd, err := next()
			if err != nil {
				return nil, err
			}
			prevDC += int(unzigzag(dcd))
			q[0] = prevDC
			i := 1
			for {
				run, err := next()
				if err != nil {
					return nil, err
				}
				if run == eobRun {
					break
				}
				i += int(run)
				if i >= 64 {
					return nil, ErrCorrupt
				}
				lev, err := next()
				if err != nil {
					return nil, err
				}
				q[i] = int(unzigzag(lev))
				i++
				if i > 64 {
					return nil, ErrCorrupt
				}
			}
			// Dequantize out of zigzag order.
			for j := 0; j < 64; j++ {
				block[zigzagOrder[j]] = float64(q[j] * c.quant[zigzagOrder[j]])
			}
			idct8(&block)
			c.storeBlock(frame, bx, by, &block)
		}
	}
	return frame, nil
}

// PSNR returns the peak signal-to-noise ratio in dB between two equal-size
// 8-bit frames (+Inf for identical frames).
func PSNR(a, b []byte) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var mse float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		mse += d * d
	}
	mse /= float64(len(a))
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}
