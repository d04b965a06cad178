package main

import (
	"math/bits"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run performs its whole set-up; setup_s is
// the median, so slow set-ups (a GC, a burst of host interference) do not
// move it while they are fewer than half.
const setupReps = 5

// quantile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics. xs is sorted in place.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := p * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durationsUs converts nanosecond samples to microseconds.
func durationsUs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// cpuTime is the process's user+system CPU time so far (getrusage), which
// counts only time this process ran — not time other tenants of the host
// took from it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far, in MB: VmHWM of
// /proc/self/status. getrusage's ru_maxrss does not serve: Linux folds the
// resident set of the image a process replaced at exec into it, so a
// program started by run.py would report Python's peak.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// countPositions draws, for each block of blockLen requests a client sends,
// the one position that is GET /count. The same seed, client and block
// always give the same position.
type countPositions struct{ rng *rand.Rand }

// blockLen is the request block: one /count per block, the rest pages.
const blockLen = 16

func newCountPositions(seed int64, client int) countPositions {
	return countPositions{rand.New(rand.NewSource(seed*7919 + int64(client)))}
}

func (c countPositions) next() int { return c.rng.Intn(blockLen) }

// hist is a fixed-size log-linear histogram of nanosecond samples: exact
// below 512 ns, then 256 buckets per power of two (0.4% resolution) up to
// about 34 s. Its size does not grow with the sample count, so a faster
// program never makes the benchmark's own memory grow — which would show
// in peak_rss_mb.
type hist struct {
	n      uint64
	counts [histBuckets]uint64
}

const (
	histSubBits = 8
	histSub     = 1 << histSubBits
	histMaxExp  = 27
	histBuckets = (histMaxExp + 2) * histSub
)

// histIndex maps v to its bucket: v itself below 2·histSub, else e·histSub
// + v>>e, where e keeps v>>e in [histSub, 2·histSub).
func histIndex(v int64) int {
	if v < 2*histSub {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - histSubBits - 1
	if e > histMaxExp {
		return histBuckets - 1
	}
	return e*histSub + int(v>>e)
}

// histBounds returns bucket i's lower bound and width.
func histBounds(i int) (lower, width float64) {
	e := max(i/histSub-1, 0)
	m := i - e*histSub
	return float64(int64(m) << e), float64(int64(1) << e)
}

func (h *hist) add(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the p-quantile (0..1) in nanoseconds, interpolated
// linearly inside the bucket that holds it.
func (h *hist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := p * float64(h.n-1)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) > rank {
			lower, width := histBounds(i)
			return lower + min((rank-seen+0.5)/float64(c), 1)*width
		}
		seen += float64(c)
	}
	lower, width := histBounds(histBuckets - 1)
	return lower + width
}
