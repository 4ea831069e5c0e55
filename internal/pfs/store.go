package pfs

import (
	"atomio/internal/interval"
	"atomio/internal/interval/index"
	"atomio/internal/sim"
)

// content is the storage layer of one file — who wrote each byte: a
// writeLog in production. The pfs tests pin it against a second
// implementation, a flat array of each byte's writer: on any configuration
// the owners are identical.
type content interface {
	add(r index.Record)                 // appends a call's record, its runs ascending, kept as it stands
	records(visit func(r index.Record)) // the records, in log order
}

// file is one file's server-side state: its content store (nil for
// data-less runs) and the atomic-listio serialization point.
type file struct {
	name    string
	content content

	// listioFreeAt is the virtual time at which the file's atomic-listio
	// facility next becomes idle.
	listioFreeAt sim.VTime

	// Fault bookkeeping (see fault.go): damage lists the byte ranges
	// surrendered to injected faults, intents is the write-ahead log that
	// Recover replays over them. Both stay empty on healthy runs.
	damage  interval.List
	intents map[int][]Batch
}

// newFile creates a file that keeps a write log if the file system stores
// data.
func (fs *FileSystem) newFile(name string) *file {
	f := &file{name: name}
	if fs.cfg.StoreData {
		f.content = new(writeLog)
	}
	return f
}

// store appends b, client rank's call, to the file's write log. A file
// without a content store keeps nothing. One with a store keeps the call's
// lists as they stand (see Batch), one record per run of ascending extents
// — touching allowed, as an aggregator's batch of several writers' extents
// has them; every strategy's call is one run — so an extent that does not
// ascend past the one before starts the next record, and a call's
// overlapping extents land in the order it wrote them.
func (f *file) store(b Batch, rank int) {
	if f.content == nil {
		return
	}
	first, end := -1, int64(0) // the open record's first extent, and where its last nonempty one ends
	for i, e := range b.Ext {
		if e.Empty() {
			continue
		}
		if first >= 0 && end > e.Off {
			f.record(b.Slice(first, i), rank)
			first = -1
		}
		if first < 0 {
			first = i
		}
		end = e.End()
	}
	if first >= 0 {
		f.record(b.Slice(first, len(b.Ext)), rank)
	}
}

// record appends one run of b's ascending extents to the file's content.
func (f *file) record(b Batch, rank int) {
	f.content.add(index.Record{Ext: b.Ext, Writers: b.Writers, Writer: rank})
}

// writeLog is the append-only log of a file's write records, in the order
// they booked their servers. Every server is a FCFS queue that takes pieces
// in (arrival, rank) order, and a record is appended in the turn that books
// its servers, so on each server the log is in completion order: where
// records overlap, the later one owns the file's bytes.
type writeLog []index.Record

func (l *writeLog) add(r index.Record) { *l = append(*l, r) }

func (l writeLog) records(visit func(r index.Record)) {
	for _, r := range l {
		visit(r)
	}
}

// EachRecord visits the named file's write records in log order: each
// call's ascending extents as it lent them and whose data each is. Where
// records overlap, the later one owns the bytes. The lists are the
// callers': read-only. A file system that keeps no records (StoreData off)
// visits none.
func (fs *FileSystem) EachRecord(name string, visit func(r index.Record)) error {
	f, err := fs.lookup(name, false)
	if err != nil {
		return err
	}
	if f.content != nil {
		f.content.records(visit)
	}
	return nil
}
