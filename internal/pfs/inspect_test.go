package pfs

// State only the tests read or set: what faults surrendered, what a client
// still holds dirty, the server pool behind the file system, and the
// per-server arrival offsets.

import (
	"atomio/internal/interval"
	"atomio/internal/sim"
)

// Damaged returns the canonical list of byte ranges the named file has
// surrendered to injected faults.
func (fs *FileSystem) Damaged(name string) (interval.List, error) {
	f, err := fs.lookup(name, false)
	if err != nil {
		return nil, err
	}
	return f.damage.Normalize(), nil
}

// DirtyBytes returns the amount of write-behind data not yet flushed.
func (c *Client) DirtyBytes() int64 {
	var n int64
	for _, b := range c.cache.dirty {
		n += b.Ext.TotalLen()
	}
	return n
}

// Servers exposes the server pool (for utilization reporting in benches).
func (fs *FileSystem) Servers() *sim.Pool { return fs.servers }

// SetSkew sets the arrival seam (FileSystem.skew): rank's pieces reach
// server skew(rank, server) after the client sends them.
func (fs *FileSystem) SetSkew(skew func(rank, server int) sim.VTime) { fs.skew = skew }
