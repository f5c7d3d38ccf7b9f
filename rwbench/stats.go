package main

import (
	"bytes"
	"math"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of v and the
// number of samples that lie beyond it.
func percentile(v []float64, p float64) (val float64, beyond int) {
	if len(v) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

// median returns the middle value of v, averaging the two middle values
// of an even-length v; 0 when v is empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geoMeanIncreasePct returns the geometric mean of the ratios, minus 1,
// as a percentage.
func geoMeanIncreasePct(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	var logSum float64
	for _, r := range ratios {
		logSum += math.Log(r)
	}
	return (math.Exp(logSum/float64(len(ratios))) - 1) * 100
}

// mean returns the arithmetic mean of v; 0 when v is empty.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// rssSampler tracks the process's peak resident set while it runs,
// reading /proc/self/statm every few milliseconds.
type rssSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak int64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.peak = readRSS()
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.peak = max(s.peak, readRSS())
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak in MB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	s.done.Wait()
	s.peak = max(s.peak, readRSS())
	return float64(s.peak) / (1 << 20)
}

// readRSS returns the resident set size in bytes, or 0 where
// /proc/self/statm is unavailable.
func readRSS() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(data)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
