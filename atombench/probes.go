package main

import (
	"fmt"
	"time"

	"atomio/internal/core"
	"atomio/internal/datatype"
	"atomio/internal/fileview"
	"atomio/internal/harness"
	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/lock"
	"atomio/internal/mpi"
	"atomio/internal/obs"
	"atomio/internal/pfs"
	"atomio/internal/runner"
	"atomio/internal/sim"
	"atomio/internal/sim/des"
	"atomio/internal/sim/fault"
	"atomio/internal/verify"
	partition "atomio/internal/workload"
)

// A probe repeats until it has run probeReps times and for probeMin, or
// until probeMax has gone; its median is reported.
const (
	probeReps = 5
	probeMin  = 200 * time.Millisecond
	probeMax  = 1500 * time.Millisecond
)

// repeat runs f, which returns the host time of the call it measures, and
// returns the median in ns and the repetition count. It stops at f's first
// error.
func repeat(f func() (time.Duration, error)) (ns float64, reps int, err error) {
	var ds []float64
	start := time.Now()
	for spent := time.Duration(0); len(ds) == 0 || (len(ds) < probeReps || spent < probeMin) && spent < probeMax; spent = time.Since(start) {
		d, err := f()
		if err != nil {
			return 0, 0, err
		}
		ds = append(ds, float64(d))
	}
	return median(ds), len(ds), nil
}

// timeIt is repeat for a call that cannot fail, timed as a whole.
func timeIt(f func()) (ns float64, reps int) {
	ns, reps, _ = repeat(func() (time.Duration, error) {
		start := time.Now()
		f()
		return time.Since(start), nil
	})
	return ns, reps
}

// sink keeps probe results alive so the calls are not optimised away.
var sink any

// onDES runs body as `actors` coroutines of a fresh event-loop engine, the
// engine every cell runs on, and returns the host time of the run. prepare
// hands the coordinator to the shared structures first.
func onDES(actors int, prepare func(sim.Coord), body func(id int, coord sim.Coord)) (time.Duration, error) {
	eng := des.New()
	coord := eng.NewCoord(actors)
	if prepare != nil {
		prepare(coord)
	}
	start := time.Now()
	err := eng.Run(coord, actors, func(id int) {
		defer coord.Done(id)
		body(id, coord)
	})
	return time.Since(start), err
}

// rankViews is one probe cell seen by every layer: the partition pieces,
// their flattened views, and the memory-to-file mappings.
type rankViews struct {
	exp     harness.Experiment
	pieces  []partition.Piece
	views   []interval.List
	maps    [][]fileview.Mapping
	extents int
	segs    int
}

func viewsOf(e harness.Experiment) (*rankViews, error) {
	rv := &rankViews{exp: e}
	for rank := 0; rank < e.Procs; rank++ {
		p, err := partition.ColumnWise(e.M, e.N, e.Procs, e.Overlap, rank)
		if err != nil {
			return nil, err
		}
		view := interval.List(p.Filetype.Flatten())
		maps := fileview.New(0, datatype.Byte, p.Filetype).Map(p.BufBytes)
		rv.pieces = append(rv.pieces, p)
		rv.views = append(rv.views, view)
		rv.maps = append(rv.maps, maps)
		rv.extents += len(view)
		rv.segs += len(maps)
	}
	return rv, nil
}

// segments turns every rank's mappings into write segments over per-rank
// buffers (stamped with the rank's marker) or one shared, data-less buffer.
func (rv *rankViews) segments(perRank bool) [][]pfs.Segment {
	var shared []byte
	out := make([][]pfs.Segment, len(rv.maps))
	for rank, maps := range rv.maps {
		size := rv.pieces[rank].BufBytes
		buf := shared
		switch {
		case perRank:
			buf = make([]byte, size)
			verify.Fill(rank, buf)
		case int64(len(shared)) < size:
			shared = make([]byte, size)
			buf = shared
		}
		for _, m := range maps {
			out[rank] = append(out[rank], pfs.Segment{Off: m.File.Off, Data: buf[m.Buf : m.Buf+m.File.Len]})
		}
	}
	return out
}

// probes times direct calls into each layer's exported functions on the
// workload's probe cell. The figures are host ns; they say what one layer
// costs per unit of its own work, which the profile shares cannot.
func (r *result) probes(w workload, seed uint64) error {
	rv, err := viewsOf(w.Probe(seed))
	if err != nil {
		return err
	}
	big := rv
	if w.BigProbe != nil {
		if big, err = viewsOf(w.BigProbe(seed)); err != nil {
			return err
		}
	}
	e, procs := rv.exp, rv.exp.Procs

	ns, reps := timeIt(func() {
		for rank := 0; rank < procs; rank++ {
			p, _ := partition.ColumnWise(e.M, e.N, procs, e.Overlap, rank)
			sink = p.Filetype.Flatten()
		}
	})
	r.set("datatype.flatten_ns_per_extent", ns/float64(rv.extents), n(reps))
	r.set("datatype.extents", float64(rv.extents))

	ns, reps = timeIt(func() {
		for _, p := range rv.pieces {
			sink = fileview.New(0, datatype.Byte, p.Filetype).Map(p.BufBytes)
		}
	})
	r.set("fileview.map_ns_per_seg", ns/float64(rv.segs), n(reps))

	ns, reps = timeIt(func() {
		for rank := 0; rank+1 < procs; rank++ {
			sink = rv.views[rank].Subtract(rv.views[rank+1])
		}
	})
	r.set("interval.subtract_ns_per_extent", ns/float64(2*rv.extents-len(rv.views[0])-len(rv.views[procs-1])), n(reps))

	ns, reps = timeIt(func() { sink = index.SweepOverlaps(rv.views) })
	r.set("index.sweep_ns_per_extent", ns/float64(rv.extents), n(reps))
	ns, reps = timeIt(func() { sink = index.ClipAll(rv.views) })
	r.set("index.clipall_ns_per_extent", ns/float64(rv.extents), n(reps))

	var matrix core.OverlapMatrix
	ns, reps = timeIt(func() { matrix = core.BuildOverlapMatrix(rv.views) })
	r.set("core.matrix_ns", ns, n(reps))
	ns, reps = timeIt(func() { sink, _ = core.GreedyColor(matrix) })
	r.set("core.color_ns", ns, n(reps))
	const clipRanks = 8
	ns, reps = timeIt(func() {
		for i := 0; i < clipRanks; i++ {
			sink = core.ClipForRank(rv.views, i*procs/clipRanks)
		}
	})
	r.set("core.clip_rank_ns", ns/float64(clipRanks), n(reps))
	ns, reps, err = repeat(func() (time.Duration, error) {
		start := time.Now()
		for _, v := range rv.views {
			l, err := core.DecodeExtents(core.EncodeExtents(v))
			if err != nil {
				return 0, err
			}
			sink = l
		}
		return time.Since(start), nil
	})
	if err != nil {
		return err
	}
	r.set("core.wire_ns_per_extent", ns/float64(rv.extents), n(reps))

	if err := r.probeAllgather(rv); err != nil {
		return err
	}
	if err := r.probeScheduling(big); err != nil {
		return err
	}
	if err := r.probePFS(rv, w.StoresData); err != nil {
		return err
	}
	if !w.StoresData {
		// These layers run on this workload's cells not at all.
		for _, name := range []string{"fault.generate_ns", "runner.overhead_ns_per_cell"} {
			r.set(name, 0, note("n/a on this workload"))
		}
		return nil
	}

	const scripts = 1000
	ns, reps = timeIt(func() {
		for i := uint64(0); i < scripts; i++ {
			sink = fault.Generate(seed+i, fault.GenParams{Servers: 2, Ranks: 8, LockFaults: true, WriterCrash: true})
		}
	})
	r.set("fault.generate_ns", ns/float64(scripts), n(reps))

	// The runner's own cost per cell — hand-off to the worker, timing,
	// panic isolation — is far below the noise of any real cell, so it is
	// measured on cells that fail at once (no strategy).
	cells := make([]runner.Cell, 1000)
	ns, reps, _ = repeat(func() (time.Duration, error) {
		start := time.Now()
		sink = runner.Run(cells, runner.Options{Workers: 1})
		through := time.Since(start)
		for _, c := range cells {
			sink, _ = c.Experiment.Run()
		}
		return 2*through - time.Since(start), nil // through − direct
	})
	r.set("runner.overhead_ns_per_cell", ns/float64(len(cells)), n(reps))
	return nil
}

// probeAllgather times the handshake's opening collective alone: every rank
// allgathers its encoded view, then all meet at a barrier.
func (r *result) probeAllgather(rv *rankViews) error {
	procs := rv.exp.Procs
	payloads := make([][]byte, procs)
	for rank, v := range rv.views {
		payloads[rank] = core.EncodeExtents(v)
	}
	world := func(rec *obs.Recorder) (time.Duration, error) {
		cfg := rv.exp.Platform.MPIConfig(procs)
		eng := des.New()
		cfg.Engine, cfg.Coord, cfg.Obs = eng, eng.NewCoord(procs), rec
		start := time.Now()
		_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
			sink = c.Allgather(payloads[c.Rank()])
			c.Barrier()
			return nil
		})
		return time.Since(start), err
	}
	// One counted run gives the message count; the timed runs carry no
	// recorder.
	rec := obs.NewRecorder(procs, -1)
	if _, err := world(rec); err != nil {
		return err
	}
	msgs := rec.Metrics().Counter(obs.MetricMsgs)
	ns, reps, err := repeat(func() (time.Duration, error) { return world(nil) })
	if err != nil {
		return err
	}
	r.set("mpi.allgather_ns_per_msg", ns/float64(msgs), n(reps), note(fmt.Sprintf("%d msgs", msgs)))
	return nil
}

// probeScheduling times the event loop handing the turn between actors,
// and a lock/unlock cycle of every rank's span with no I/O in between.
func (r *result) probeScheduling(rv *rankViews) error {
	procs := rv.exp.Procs
	handoffs := max(4, 65536/procs)
	ns, reps, err := repeat(func() (time.Duration, error) {
		return onDES(procs, nil, func(id int, coord sim.Coord) {
			for k := 1; k <= handoffs; k++ {
				coord.Await(id, sim.VTime(k))
			}
		})
	})
	if err != nil {
		return err
	}
	r.set("des.switch_ns", ns/float64(procs*handoffs), n(reps), note(fmt.Sprintf("P=%d", procs)))

	if !rv.exp.Platform.SupportsLocking() {
		return fmt.Errorf("probe cell platform %s has no lock manager", rv.exp.Platform.Name)
	}
	ns, reps, err = repeat(func() (time.Duration, error) {
		mgr := rv.exp.Platform.NewLockManager()
		return onDES(procs, func(c sim.Coord) {
			mgr.(interface{ SetCoord(sim.Coord) }).SetCoord(c)
		}, func(id int, _ sim.Coord) {
			span := rv.views[id].Span()
			granted := mgr.Lock(id, span, lock.Exclusive, 0)
			mgr.Unlock(id, span, granted)
		})
	})
	if err != nil {
		return err
	}
	r.set("lock.cycle_ns", ns/float64(procs), n(reps), note(fmt.Sprintf("P=%d", procs)))
	return nil
}

// probePFS times every rank writing its own segments and syncing, data-less
// as the grids run it and — on the verified workload — with stored bytes,
// which verify.Check then reads back.
func (r *result) probePFS(rv *rankViews, stored bool) error {
	const name = "probe.dat"
	procs := rv.exp.Procs
	// write runs the P clients on a fresh file system, which it leaves in fs.
	var fs *pfs.FileSystem
	write := func(store bool, segs [][]pfs.Segment) (time.Duration, error) {
		var err error
		if fs, err = pfs.New(rv.exp.Platform.PFSConfig(store)); err != nil {
			return 0, err
		}
		var openErr error
		d, err := onDES(procs, fs.SetCoord, func(id int, _ sim.Coord) {
			c, err := fs.Open(name, id, sim.NewClock(0))
			if err != nil {
				openErr = err
				return
			}
			c.WriteV(segs[id])
			c.Sync()
		})
		if err == nil {
			err = openErr
		}
		return d, err
	}

	segs := rv.segments(false)
	ns, reps, err := repeat(func() (time.Duration, error) { return write(false, segs) })
	if err != nil {
		return err
	}
	r.set("pfs.writev_ns_per_seg", ns/float64(rv.segs), n(reps))

	if !stored {
		for _, name := range []string{"pfs.store_ns_per_mb", "verify.check_ns_per_mb"} {
			r.set(name, 0, note("n/a on this workload"))
		}
		return nil
	}
	mb := float64(rv.exp.M) * float64(rv.exp.N) / (1 << 20)
	segs = rv.segments(true)
	ns, reps, err = repeat(func() (time.Duration, error) { return write(true, segs) })
	if err != nil {
		return err
	}
	r.set("pfs.store_ns_per_mb", ns/mb, n(reps))

	ns, reps, err = repeat(func() (time.Duration, error) {
		start := time.Now()
		rep, err := verify.Check(fs, name, rv.views)
		sink = rep
		return time.Since(start), err
	})
	if err != nil {
		return err
	}
	r.set("verify.check_ns_per_mb", ns/mb, n(reps))
	return nil
}
