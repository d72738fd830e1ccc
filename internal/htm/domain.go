package htm

// Domain is the cache-coherence directory shared by the TSX instances of
// all threads scheduled over one address space. Real TSX aborts a
// transaction when another core's access hits a line in its read or write
// set (the MESI invalidation doubles as conflict detection); the Domain
// reproduces that: every live transaction registers here, loads and stores
// consult the other live transactions' line sets, and the loser is doomed
// with AbortConflict using the requester-wins policy of an invalidation-
// based protocol.
//
// The Domain also carries the STM fallback's global commit lock. Hardware
// transactions subscribe to the lock's cache line at Begin (lock elision,
// §IV-B): acquiring the lock for an STM transaction therefore dooms every
// live hardware transaction, and a Begin while the lock is held aborts
// immediately — software and hardware transactions never run concurrently.
//
// A nil Domain (the default) keeps the single-threaded behaviour of the
// model bit-for-bit: no read tracking, no conflict checks, no lock.
type Domain struct {
	// active lists live transactions in Begin order. A slice, not a map:
	// conflict resolution must visit victims in a deterministic order.
	active []*Tx

	// lockOwner is the thread id holding the STM commit lock, -1 if free.
	lockOwner int

	// Conflicts counts cross-thread dooms issued by this domain
	// (including lock-acquisition dooms), for campaign reporting.
	Conflicts int64
}

// NewDomain returns an empty conflict domain with the commit lock free.
func NewDomain() *Domain { return &Domain{lockOwner: -1} }

func (d *Domain) register(tx *Tx) { d.active = append(d.active, tx) }

func (d *Domain) unregister(tx *Tx) {
	for i, t := range d.active {
		if t == tx {
			d.active = append(d.active[:i], d.active[i+1:]...)
			return
		}
	}
}

// doomConflicting aborts every other live transaction whose tracked lines
// collide with an access to line by thread tid. A store collides with both
// read and write sets (invalidation); a load collides with write sets only
// (a shared read of a modified line forces the writer to surrender it).
func (d *Domain) doomConflicting(tid int, line int64, isStore bool) {
	var victims []*Tx
	for _, t := range d.active {
		if t.tid == tid {
			continue
		}
		if t.dirty(line) {
			victims = append(victims, t)
			continue
		}
		if isStore {
			if _, r := t.reads[line]; r {
				victims = append(victims, t)
			}
		}
	}
	for _, t := range victims {
		d.doom(t)
	}
}

// doom rolls a victim back immediately (restoring its lines, so the
// aggressor observes pre-transaction memory) and marks it doomed; the
// victim's thread consumes the pending AbortConflict from its next Load,
// Store, Tick or Commit and runs the normal abort handler.
func (d *Domain) doom(tx *Tx) {
	d.Conflicts++
	tx.rollback(AbortConflict)
	tx.doomed = AbortConflict
}

// LockHeldByOther reports whether the STM commit lock is held by a thread
// other than tid (the line a hardware transaction subscribes to at Begin).
func (d *Domain) LockHeldByOther(tid int) bool {
	return d.lockOwner != -1 && d.lockOwner != tid
}

// AcquireLock takes the STM commit lock for thread tid. It fails (returns
// false) while another thread holds it. Taking the lock writes the line
// every live hardware transaction subscribed to, so they are all doomed.
func (d *Domain) AcquireLock(tid int) bool {
	if d.lockOwner == tid {
		return true
	}
	if d.lockOwner != -1 {
		return false
	}
	d.lockOwner = tid
	for _, t := range append([]*Tx(nil), d.active...) {
		if t.tid != tid {
			d.doom(t)
		}
	}
	return true
}

// ReleaseLock drops the commit lock if tid holds it.
func (d *Domain) ReleaseLock(tid int) {
	if d.lockOwner == tid {
		d.lockOwner = -1
	}
}
