package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"thynvm"
	"thynvm/internal/torture"
)

// tortureWorkload runs crash-torture schedules across all five systems:
// each torture.Run builds a fresh system, crashes it, recovers it and
// checks the recovered image against the oracle.
type tortureWorkload struct {
	cfg  config
	t    *tracer
	pool []*torture.Schedule // interleaved by system

	// verdict holds each pool schedule's oracle verdict from its first
	// run ("" for none yet, "ok" for a pass); repeats must reproduce it.
	verdict  []string
	repeatOK bool

	out0    []*torture.Outcome
	digest0 string
}

func newTortureWorkload(cfg config, t *tracer) *tortureWorkload {
	return &tortureWorkload{cfg: cfg, t: t, repeatOK: true}
}

// perRound is the number of schedules in one round: the same count from
// every system.
func (w *tortureWorkload) perRound() int {
	return w.cfg.size.tortureSchedules * len(torture.AllSystemNames())
}

// interleave reorders Generate's system-major output so that every round
// draws equally from each system.
func interleave(s []*torture.Schedule, systems int) []*torture.Schedule {
	per := len(s) / systems
	out := make([]*torture.Schedule, 0, len(s))
	for i := 0; i < per; i++ {
		for k := 0; k < systems; k++ {
			out = append(out, s[k*per+i])
		}
	}
	return out
}

func (w *tortureWorkload) setup() error {
	systems := len(torture.AllSystemNames())
	// torture.Generate derives schedule i from Seed+i, so campaigns with
	// adjacent seeds share most schedules; mixing the seed first gives
	// every benchmark seed its own pool.
	w.pool = interleave(torture.Generate(torture.GenConfig{
		Seed:      mixSeed(w.cfg.seed, 0),
		Schedules: w.cfg.size.tortureSchedules * w.cfg.size.torturePool,
		Inject:    w.cfg.tInject,
	}), systems)
	w.verdict = make([]string, len(w.pool))
	if w.t != nil {
		// torture.Run builds its systems itself; time the same
		// construction here, once per system.
		for _, s := range w.pool[:systems] {
			if err := w.timeNewSystem(s); err != nil {
				return err
			}
		}
	}
	warm := torture.Generate(torture.GenConfig{
		Seed:      mixSeed(w.cfg.seed, 1<<40),
		Schedules: w.cfg.size.tortureSchedules,
		Inject:    w.cfg.tInject,
	})
	for _, s := range warm {
		if _, err := torture.Run(s); err != nil {
			return fmt.Errorf("warm-up %s: %w", s.Label, err)
		}
	}
	return nil
}

// timeNewSystem builds and closes a system configured as torture.Run
// configures the schedule's.
func (w *tortureWorkload) timeNewSystem(s *torture.Schedule) error {
	kind, err := thynvm.ParseSystem(s.System)
	if err != nil {
		return err
	}
	sys, err := newSystem(w.t, kind, thynvm.Options{
		PhysBytes:  s.PhysBytes,
		EpochLen:   time.Duration(s.EpochNs),
		BTTEntries: s.BTT,
		PTTEntries: s.PTT,
		NoCaches:   kind == thynvm.SystemIdealDRAM || kind == thynvm.SystemIdealNVM,
	})
	if err != nil {
		return err
	}
	return sys.Close()
}

// round runs the next slice of the pool. The measured phase cycles through
// the pool when it outlasts it; a repeated schedule is repeated work that
// must give the same verdict, so only a schedule's first run is checked
// and counted, and attempted and failed depend on the seed alone, not on
// how many schedules the host had time for.
func (w *tortureWorkload) round(r int) (ops, checked, failed int) {
	n := w.perRound()
	for i := 0; i < n; i++ {
		k := (r*n + i) % len(w.pool)
		if w.t != nil {
			w.t.begin(lTortureRun)
		}
		o := w.runOne(k)
		if w.t != nil {
			w.t.end()
		}
		c, f := w.check(k, o)
		checked += c
		failed += f
		if r == 0 {
			w.out0 = append(w.out0, o)
		}
		ops++
	}
	if r == 0 {
		h := sha256.New()
		enc := json.NewEncoder(h)
		for i, o := range w.out0 {
			enc.Encode(w.pool[i].Label)
			enc.Encode(o)
		}
		w.digest0 = fmt.Sprintf("%x", h.Sum(nil)[:12])
	}
	return ops, checked, failed
}

// runOne runs pool schedule k; an engine error is a violation.
func (w *tortureWorkload) runOne(k int) *torture.Outcome {
	o, err := torture.Run(w.pool[k])
	if err != nil {
		o = &torture.Outcome{Violation: "error: " + err.Error()}
	}
	return o
}

// check records schedule k's verdict on its first run, returning it as one
// checked op (and one failed op on a violation), and compares a repeat's
// verdict with the first.
func (w *tortureWorkload) check(k int, o *torture.Outcome) (checked, failed int) {
	v := o.Violation
	if v == "" {
		v = "ok"
	}
	s := w.pool[k]
	if prev := w.verdict[k]; prev != "" {
		if prev != v {
			fmt.Fprintf(os.Stderr, "perfbench: torture %s seed %d: repeat gave %q, first run %q\n", s.Label, w.cfg.seed, v, prev)
			w.repeatOK = false
		}
		return 0, 0
	}
	w.verdict[k] = v
	if o.Violation != "" {
		fmt.Fprintf(os.Stderr, "perfbench: torture %s seed %d: %s\n", s.Label, w.cfg.seed, o.Violation)
		return 1, 1
	}
	return 1, 0
}

func (w *tortureWorkload) digest() string { return w.digest0 }

func (w *tortureWorkload) simMetrics(ms metricSet) {
	var crashes, matches, cycles float64
	verdicts := map[string]float64{}
	for _, o := range w.out0 {
		crashes += float64(o.Crashes)
		matches += float64(o.Matches)
		cycles += float64(o.FinalCycle)
		for _, v := range o.Verdicts {
			kind, _, _ := strings.Cut(v, ":")
			verdicts[kind]++
		}
	}
	ms["torture.match_ratio"] = ratio(matches, crashes)
	for _, v := range []string{"clean", "fallback", "unrecoverable", "violation"} {
		ms["torture.verdict."+v] = verdicts[v]
	}
	ms["sim.cycles_per_op"] = ratio(cycles, float64(len(w.out0)))
}

// finish runs, untimed and untraced, every pool schedule the measured
// phase did not reach, so each run checks the whole pool.
func (w *tortureWorkload) finish() (attempted, failed int, ok bool) {
	for k, v := range w.verdict {
		if v == "" {
			c, f := w.check(k, w.runOne(k))
			attempted += c
			failed += f
		}
	}
	return attempted, failed, w.repeatOK
}

func (w *tortureWorkload) nvmWrites() uint64 { return 0 }

func (w *tortureWorkload) close() {}
