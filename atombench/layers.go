package main

import (
	"slices"
	"strings"
)

const internalPrefix = "atomio/internal/"

// packageLayer maps every simulator package (its path below
// atomio/internal/) to the layer whose host time it counts towards. It is
// the one function→layer table; a test lists atomio/internal/... and fails
// on a package missing here, so a new package cannot fall silently into
// "other". The analysis suite and the CLI layer never run inside a cell.
var packageLayer = map[string]string{
	"core":           "core",
	"datatype":       "datatype",
	"fileview":       "fileview",
	"harness":        "harness",
	"interval":       "interval",
	"interval/index": "index",
	"lock":           "lock",
	"mpi":            "mpi",
	"mpiio":          "mpiio",
	"obs":            "obs",
	"pfs":            "pfs",
	"pfs/scenario":   "pfs",
	"platform":       "harness",
	"runner":         "harness",
	"sim":            "sim",
	"sim/des":        "des",
	"sim/fault":      "sim",
	"trace":          "trace",
	"verify":         "verify",
	"workload":       "datatype",
}

// packageOf returns the import path of the package a profile's function
// name belongs to: "atomio/internal/interval/index" for
// "atomio/internal/interval/index.(*Index[go.shape.int]).Insert".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments carry import paths of their own
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf names the simulator layer a function belongs to, or "".
func layerOf(fn string) string {
	pkg, ok := strings.CutPrefix(packageOf(fn), internalPrefix)
	if !ok {
		return ""
	}
	return packageLayer[pkg]
}

// Runtime frames that mean garbage collection and allocation, and the
// packages that mean sorting. A runtime leaf is classified by the first of
// these met on the way up its stack, so mark assists and sweeping done
// inside mallocgc count as collection.
var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc",
		"runtime.scanobject", "runtime.scanblock", "runtime.greyobject",
		"runtime.markroot", "runtime.gcMark", "runtime.gcStart",
		"runtime.bgsweep", "runtime.sweepone", "runtime.(*sweepLocked).sweep",
		"runtime.bgscavenge", "runtime.wbBufFlush", "runtime.gcWriteBarrier",
		"runtime.(*gcWork)", "runtime.gcFlushBgCredit",
	}
	allocFrames = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray",
		"runtime.makeslice", "runtime.growslice", "runtime.makemap",
	}
	sortPackages = []string{"sort", "slices", "internal/reflectlite", "reflect"}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// leafBucket names the host_share.* bucket of a stack: the layer of its
// leaf frame, or one of the leaf-only buckets.
func leafBucket(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	if l := layerOf(frames[0]); l != "" {
		return l
	}
	pkg := packageOf(frames[0])
	if slices.Contains(sortPackages, pkg) {
		return "sort"
	}
	if pkg != "runtime" && !strings.HasPrefix(pkg, "internal/runtime/") {
		return "other"
	}
	for _, fn := range frames {
		switch {
		case hasAnyPrefix(fn, gcFrames):
			return "runtime_gc"
		case hasAnyPrefix(fn, allocFrames):
			return "runtime_alloc"
		case slices.Contains(sortPackages, packageOf(fn)):
			return "sort" // the reflection swapper's typedmemmove
		case layerOf(fn) != "":
			return "other"
		}
	}
	return "other"
}

// inclBucket names the host_incl.* bucket of a stack: the layer of the
// innermost simulator frame, which is thereby charged the sorting,
// allocating and clearing it causes.
func inclBucket(frames []string) string {
	for _, fn := range frames {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "other"
}

// attribute buckets a profile's samples both ways.
func attribute(stacks []stack) (leaf, incl map[string]int64, total int64) {
	leaf, incl = map[string]int64{}, map[string]int64{}
	for _, s := range stacks {
		leaf[leafBucket(s.Frames)] += s.Count
		incl[inclBucket(s.Frames)] += s.Count
		total += s.Count
	}
	return leaf, incl, total
}
