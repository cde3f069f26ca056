package main

import (
	"math"
	"math/rand/v2"
)

// The workload generator. The seed is the only source of object sizes,
// contents, op mix and Zipf picks; the stack receives only what this file
// generates.

// Op kinds. A user op is one `xnd` command's worth of work.
const (
	kindUpload   = "upload"
	kindDownload = "download"
	kindCoded    = "coded_download"
	kindRepair   = "repair"
	kindDelete   = "delete" // harness cleanup, not a user op
)

// genOp is one generated op: what to do, to which object, and for uploads
// how large the new object is.
type genOp struct {
	Kind string
	Obj  int // target object (new object's index for uploads)
	Size int // new object's size (uploads only)
}

// Workload shapes.
const (
	bulkSize        = 16 << 20
	smallPreload    = 4000
	smallMin        = 4 << 10
	smallMax        = 64 << 10
	degradedSize    = 1 << 20
	degradedPerKind = 40
)

// generator yields one workload's preload sizes and op stream.
type generator struct {
	workload string
	seed     uint64
	rng      *rand.Rand
	pop      int // objects that exist once every op so far has run
}

func newGenerator(workload string, seed uint64) *generator {
	return &generator{
		workload: workload,
		seed:     seed,
		rng:      rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
	}
}

// preload returns the sizes of the objects set up before measuring; object
// i of the population has size preload()[i]. In degraded, objects
// [0,degradedPerKind) are replicated and the next degradedPerKind are RS.
func (g *generator) preload() []int {
	var sizes []int
	switch g.workload {
	case "small":
		// Stratified sizes: object i takes the size quantile
		// frac(u + i/phi) for one seeded u, so the Zipf-hot head of the
		// population spans the size range evenly under every seed instead
		// of letting a few random draws set the whole download mix.
		u := g.rng.Float64()
		for i := 0; i < smallPreload; i++ {
			q := math.Mod(u+float64(i)*0.6180339887498949, 1)
			sizes = append(sizes, logUniform(q))
		}
	case "degraded":
		for i := 0; i < 2*degradedPerKind; i++ {
			sizes = append(sizes, degradedSize)
		}
	}
	g.pop = len(sizes)
	return sizes
}

// smallSize draws log-uniformly from [smallMin, smallMax].
func (g *generator) smallSize() int { return logUniform(g.rng.Float64()) }

// logUniform maps a quantile q in [0,1) to a log-uniform size in
// [smallMin, smallMax].
func logUniform(q float64) int {
	lo, hi := math.Log(smallMin), math.Log(smallMax)
	return int(math.Exp(lo + q*(hi-lo)))
}

// zipf1 draws a rank in [0,n) with P(k) roughly proportional to 1/(k+1):
// the continuous inverse CDF of Zipf with exponent 1.
func (g *generator) zipf1(n int) int {
	k := int(math.Exp(g.rng.Float64()*math.Log(float64(n)+1))) - 1
	if k >= n {
		k = n - 1
	}
	if k < 0 {
		k = 0
	}
	return k
}

// next returns the next op of the stream. bulk alternates upload and
// download of a fresh 16 MiB object; small and degraded draw their mix.
func (g *generator) next() genOp {
	switch g.workload {
	case "bulk":
		// One object per cycle: even ops upload it, odd ops download it.
		if g.pop%2 == 0 {
			g.pop++
			return genOp{Kind: kindUpload, Obj: g.pop / 2, Size: bulkSize}
		}
		g.pop++
		return genOp{Kind: kindDownload, Obj: g.pop/2 - 1}
	case "small":
		if g.rng.Float64() < 0.25 {
			op := genOp{Kind: kindUpload, Obj: g.pop, Size: g.smallSize()}
			g.pop++
			return op
		}
		return genOp{Kind: kindDownload, Obj: g.zipf1(g.pop)}
	default: // degraded
		u := g.rng.Float64()
		switch {
		case u < 0.4:
			return genOp{Kind: kindDownload, Obj: g.rng.IntN(degradedPerKind)}
		case u < 0.8:
			return genOp{Kind: kindCoded, Obj: degradedPerKind + g.rng.IntN(degradedPerKind)}
		case u < 0.9:
			op := genOp{Kind: kindUpload, Obj: g.pop, Size: degradedSize}
			g.pop++
			return op
		default:
			return genOp{Kind: kindRepair, Obj: g.rng.IntN(degradedPerKind)}
		}
	}
}

// content returns object obj's bytes: a ChaCha8 stream keyed by the seed
// and the object index, so contents depend on nothing else.
func content(seed uint64, obj, size int) []byte {
	var key [32]byte
	for i := 0; i < 8; i++ {
		key[i] = byte(seed >> (8 * i))
		key[8+i] = byte(uint64(obj) >> (8 * i))
	}
	src := rand.NewChaCha8(key)
	out := make([]byte, size)
	i := 0
	for ; i+8 <= size; i += 8 {
		v := src.Uint64()
		for j := 0; j < 8; j++ {
			out[i+j] = byte(v >> (8 * j))
		}
	}
	for v := src.Uint64(); i < size; i++ {
		out[i] = byte(v)
		v >>= 8
	}
	return out
}
