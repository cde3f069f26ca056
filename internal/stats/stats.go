// Package stats provides the summary statistics and terminal rendering used
// by the experiment harness to regenerate the paper's tables and figures,
// and the bounded Ring every keep-last-N buffer in the stack is built on.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Summary holds order statistics over a sample of durations or scalars.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	P95    float64
	P99    float64
	Stddev float64
}

// Summarize computes a Summary over xs. An empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum, sumsq float64
	for _, x := range s {
		sum += x
		sumsq += x * x
	}
	n := float64(len(s))
	mean := sum / n
	variance := sumsq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Mean:   mean,
		Median: Percentile(s, 50),
		P95:    Percentile(s, 95),
		P99:    Percentile(s, 99),
		Stddev: math.Sqrt(variance),
	}
}

// Percentile returns the p-th percentile (0–100) of sorted sample s using
// linear interpolation between closest ranks.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// DurationsToSeconds converts durations to float64 seconds for Summarize.
func DurationsToSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// Counter tracks success/failure counts for an availability ratio.
type Counter struct {
	OK   int
	Fail int
}

// Observe records one probe outcome.
func (c *Counter) Observe(ok bool) {
	if ok {
		c.OK++
	} else {
		c.Fail++
	}
}

// Total returns the number of observations.
func (c Counter) Total() int { return c.OK + c.Fail }

// Ratio returns OK/(OK+Fail) as a percentage, or 0 with no observations.
func (c Counter) Ratio() float64 {
	if c.Total() == 0 {
		return 0
	}
	return 100 * float64(c.OK) / float64(c.Total())
}

// BarChart renders a horizontal ASCII bar chart: one row per label, bar
// proportional to value/max. Used for the paper's per-depot availability
// figures (Figures 6, 9, 10, 11, 16).
func BarChart(title string, labels []string, values []float64, maxValue float64, width int) string {
	if width <= 0 {
		width = 50
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	labelW := 0
	for _, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	for i, l := range labels {
		v := 0.0
		if i < len(values) {
			v = values[i]
		}
		frac := 0.0
		if maxValue > 0 {
			frac = v / maxValue
		}
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		n := int(math.Round(frac * float64(width)))
		fmt.Fprintf(&b, "  %-*s |%s%s| %6.2f\n", labelW, l, strings.Repeat("#", n), strings.Repeat(" ", width-n), v)
	}
	return b.String()
}

// Segment describes one horizontal span in a segment map (an exnode layout
// figure, like the paper's Figures 5, 8, 15).
type Segment struct {
	Label   string // depot name
	Start   int64  // byte offset
	End     int64  // exclusive
	Row     int    // replica index (one row per replica)
	Deleted bool   // rendered as dots (Test 3 trimmed segments)
}

// SegmentMap renders replicas as rows of labelled spans over [0,total).
func SegmentMap(title string, total int64, segs []Segment, width int) string {
	if width <= 0 {
		width = 72
	}
	rows := 0
	for _, s := range segs {
		if s.Row+1 > rows {
			rows = s.Row + 1
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (0..%d bytes)\n", title, total)
	for r := 0; r < rows; r++ {
		line := []rune(strings.Repeat(" ", width))
		var labels []string
		for _, s := range segs {
			if s.Row != r {
				continue
			}
			lo := int(float64(s.Start) / float64(total) * float64(width))
			hi := int(float64(s.End) / float64(total) * float64(width))
			if hi <= lo {
				hi = lo + 1
			}
			if hi > width {
				hi = width
			}
			fill := '='
			if s.Deleted {
				fill = '.'
			}
			for i := lo; i < hi; i++ {
				line[i] = fill
			}
			if lo < width {
				line[lo] = '|'
			}
			mark := ""
			if s.Deleted {
				mark = " (deleted)"
			}
			labels = append(labels, fmt.Sprintf("%s[%d:%d]%s", s.Label, s.Start, s.End, mark))
		}
		fmt.Fprintf(&b, "  copy %d: %s\n           %s\n", r, string(line), strings.Join(labels, " "))
	}
	return b.String()
}

// PathHistogram counts, per extent of a file, how often each depot served
// that extent — the data behind the "most common download path" figures
// (Figures 12, 13, 14, 17).
type PathHistogram struct {
	extents []extentKey
	counts  map[extentKey]map[string]int
}

type extentKey struct{ start, end int64 }

// NewPathHistogram creates an empty histogram.
func NewPathHistogram() *PathHistogram {
	return &PathHistogram{counts: make(map[extentKey]map[string]int)}
}

// Observe records that depot served bytes [start,end) in one download.
func (p *PathHistogram) Observe(start, end int64, depot string) {
	k := extentKey{start, end}
	m, ok := p.counts[k]
	if !ok {
		m = make(map[string]int)
		p.counts[k] = m
		p.extents = append(p.extents, k)
		sort.Slice(p.extents, func(i, j int) bool {
			if p.extents[i].start != p.extents[j].start {
				return p.extents[i].start < p.extents[j].start
			}
			return p.extents[i].end < p.extents[j].end
		})
	}
	m[depot]++
}

// MostCommon returns, in extent order, the depot that most often served
// each extent, with its share of observations.
func (p *PathHistogram) MostCommon() []PathEntry {
	var out []PathEntry
	for _, k := range p.extents {
		m := p.counts[k]
		var best string
		bestN, total := 0, 0
		keys := make([]string, 0, len(m))
		for d := range m {
			keys = append(keys, d)
		}
		sort.Strings(keys) // deterministic tie-break
		for _, d := range keys {
			n := m[d]
			total += n
			if n > bestN {
				best, bestN = d, n
			}
		}
		out = append(out, PathEntry{Start: k.start, End: k.end, Depot: best, Share: float64(bestN) / float64(total)})
	}
	return out
}

// PathEntry is one extent of a most-common download path.
type PathEntry struct {
	Start, End int64
	Depot      string
	Share      float64 // fraction of downloads served by Depot
}

// RenderPath prints a most-common-path figure.
func (p *PathHistogram) RenderPath(title string, total int64, width int) string {
	if width <= 0 {
		width = 72
	}
	entries := p.MostCommon()
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, e := range entries {
		lo := int(float64(e.Start) / float64(total) * float64(width))
		hi := int(float64(e.End) / float64(total) * float64(width))
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		fmt.Fprintf(&b, "  %s%s%s  %s [%d:%d] (%.0f%% of downloads)\n",
			strings.Repeat(" ", lo), strings.Repeat("#", hi-lo), strings.Repeat(" ", width-hi),
			e.Depot, e.Start, e.End, 100*e.Share)
	}
	return b.String()
}
