package main

import (
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a run's named results.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// usage is a getrusage snapshot of this process.
type usage struct {
	cpu    time.Duration // user + system
	maxRSS int64         // kilobytes
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS: int64(ru.Maxrss),
	}
}

// memSampler samples the memory the Go runtime holds from the operating
// system (mapped minus released back), so a run can report the peak of
// each job rather than the process's single high-water mark, which
// depends on where one garbage collection happened to fall.
type memSampler struct {
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	samples []memSample
}

type memSample struct {
	t     time.Time
	bytes uint64
}

func startMemSampler(every time.Duration) *memSampler {
	s := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		read := []rtmetrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			rtmetrics.Read(read)
			b := read[0].Value.Uint64() - read[1].Value.Uint64()
			s.mu.Lock()
			s.samples = append(s.samples, memSample{time.Now(), b})
			s.mu.Unlock()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// memJobs is how many of a run's jobs, the first to finish, the memory
// metric looks at. The job server keeps every submitted netlist, so its
// memory grows with the jobs it has served; over a fixed count of jobs, a
// run that serves more of them is not charged for that growth.
const memJobs = 160

// jobPeaksMB stops the sampler and returns, for each of the first memJobs
// records to finish, the largest sample taken while the job ran (records
// with no sample inside get none).
func (s *memSampler) jobPeaksMB(recs []record) []float64 {
	close(s.stop)
	<-s.done
	recs = append([]record(nil), recs...)
	sort.Slice(recs, func(i, j int) bool {
		return recs[i].start.Add(recs[i].latency).Before(recs[j].start.Add(recs[j].latency))
	})
	recs = recs[:min(len(recs), memJobs)]
	var out []float64
	for _, r := range recs {
		end := r.start.Add(r.latency)
		var peak uint64
		for _, x := range s.samples {
			if !x.t.Before(r.start) && !x.t.After(end) && x.bytes > peak {
				peak = x.bytes
			}
		}
		if peak > 0 {
			out = append(out, float64(peak)/(1<<20))
		}
	}
	return out
}
