package sat

// Clause storage. All clause literals live in one flat arena ([]Lit), and a
// clause is identified by a cref — an index into a parallel header slice.
// Compared to the previous []*clause representation this keeps propagation
// cache-friendly (an 8-byte watcher, literals contiguous in one backing
// array, no pointer chasing per visited clause) and makes clause references
// 4 bytes everywhere (watch lists, reason slots, proof chains).
//
// Deletion is logical: reduceDB marks a clause deleted and watch lists drop
// it lazily, exactly as before. What the arena adds is reclamation — when
// the deleted clauses' literals exceed a third of the arena, compact() slides
// the live blocks left. Headers are never moved, so a cref stays valid for
// the lifetime of the solver; only the offsets stored inside headers change,
// which is invisible to every holder of a cref.

// cref names a clause in the solver's clause database.
type cref int32

// crefUndef is the "no clause" sentinel (decision variables, empty reasons).
const crefUndef cref = -1

// Header flag bits.
const (
	flagLearnt uint8 = 1 << iota
	flagDel
)

// Learnt-clause tiers (Chanseok Oh's three-tier scheme). The zero value is
// tierLocal so that a header allocated without explicit tiering is always
// eligible for deletion; recordLearnt assigns the real tier from the LBD.
const (
	// tierLocal clauses are the churn pool: reduced by activity, weakest
	// half dropped whenever the pool outgrows its budget.
	tierLocal uint8 = iota
	// tierMid clauses (LBD <= midLBD) survive reductions but are demoted to
	// tierLocal when they stay out of conflict analysis for midAgeLimit
	// conflicts.
	tierMid
	// tierCore clauses (LBD <= coreLBD) are never deleted.
	tierCore
)

// Tier thresholds and the mid-tier disuse horizon (in conflicts).
const (
	coreLBD     = 2
	midLBD      = 6
	midAgeLimit = 30000
)

// tierForLBD maps a glue value to its tier.
func tierForLBD(lbd int) uint8 {
	switch {
	case lbd <= coreLBD:
		return tierCore
	case lbd <= midLBD:
		return tierMid
	}
	return tierLocal
}

// clauseHdr is the per-clause metadata, 24 bytes.
type clauseHdr struct {
	off   int32   // start of the literal block in the arena
	size  int32   // number of literals
	act   float32 // activity (learnt clauses only)
	id    int32   // proof-tracing id; -1 when tracing is off
	touch int32   // conflict count at last analysis involvement (mid-tier aging)
	lbd   uint16  // glue: distinct decision levels at learn time, updated on use
	tier  uint8   // learnt tier (tierLocal/tierMid/tierCore)
	flags uint8
}

// clauseDB owns the arena and headers.
type clauseDB struct {
	arena  []Lit
	hdr    []clauseHdr
	wasted int // literals owned by deleted clauses, pending compaction
}

// alloc stores a new clause and returns its cref.
func (db *clauseDB) alloc(lits []Lit, learnt bool, id int32) cref {
	c := cref(len(db.hdr))
	off := int32(len(db.arena))
	db.arena = append(db.arena, lits...)
	var fl uint8
	if learnt {
		fl = flagLearnt
	}
	db.hdr = append(db.hdr, clauseHdr{off: off, size: int32(len(lits)), id: id, flags: fl})
	return c
}

// lits returns the clause's literal block. The slice aliases the arena: it
// is valid until the next alloc or compact, and writes through (watched-
// literal reordering relies on this).
func (db *clauseDB) lits(c cref) []Lit {
	h := &db.hdr[c]
	return db.arena[h.off : h.off+h.size : h.off+h.size]
}

func (db *clauseDB) size(c cref) int { return int(db.hdr[c].size) }

func (db *clauseDB) isLearnt(c cref) bool { return db.hdr[c].flags&flagLearnt != 0 }

func (db *clauseDB) isDeleted(c cref) bool { return db.hdr[c].flags&flagDel != 0 }

func (db *clauseDB) id(c cref) int32 { return db.hdr[c].id }

// markDeleted flags a clause for lazy watcher removal and accounts its
// literals as reclaimable.
func (db *clauseDB) markDeleted(c cref) {
	h := &db.hdr[c]
	if h.flags&flagDel == 0 {
		h.flags |= flagDel
		db.wasted += int(h.size)
	}
}

// shouldCompact reports whether enough of the arena is garbage to be worth
// sliding the live blocks together.
func (db *clauseDB) shouldCompact() bool {
	return db.wasted > 0 && db.wasted*3 > len(db.arena)
}

// compact reclaims the literal blocks of deleted clauses. Headers stay in
// place (crefs remain valid); deleted clauses end up with a zero-length
// block, which is safe because every access path checks isDeleted first.
// Must not be called while a lits() slice is live.
func (db *clauseDB) compact() {
	dst := int32(0)
	for i := range db.hdr {
		h := &db.hdr[i]
		if h.flags&flagDel != 0 {
			h.off, h.size = dst, 0
			continue
		}
		copy(db.arena[dst:dst+h.size], db.arena[h.off:h.off+h.size])
		h.off = dst
		dst += h.size
	}
	db.arena = db.arena[:dst]
	db.wasted = 0
}
