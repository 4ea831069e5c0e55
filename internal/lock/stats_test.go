package lock

// The token manager's counters, which only the tests read.

// Stats reports fast-path grants, server grants, and token revocations.
func (d *Distributed) Stats() (localGrants, serverGrants, revocations int64) {
	return d.localGrants, d.serverGrants, d.revocations
}
