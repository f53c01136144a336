package probe

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"tracenet/internal/ipv4"
)

// Memo is a campaign's shared memo of logical probes: a concurrency-safe,
// single-flight map from (destination, TTL) to the reply the probe drew and
// what the exchange that drew it added to its prober's Stats. Every prober
// built with the memo in its Options reads and fills it, so each distinct
// logical probe goes on the wire once per campaign, whichever prober asks
// first and at any worker count: Doubletree's shared stop set (PAPERS.md)
// at the granularity of one probe.
//
// A hit replays its owner's accounting. The asker's Stats grow by exactly
// what the owner's exchange added — packets, answers, retries, timeouts,
// corrupt replies and back-off ticks — so every figure derived from Stats
// (a trace's probe count, a subnet's cost and confidence) is the one the
// asker would have measured sending the probe itself. Stats.MemoHits and
// Stats.MemoReplayed count the hits and the packets they replayed, and
// Stats.Wire is what the prober itself put on the wire. The prober's own
// response cache still answers first, so a repeat inside one cache epoch
// stays free.
//
// The memo is sharded by key and its slots hold no pointers, so contention
// stays per shard and the collector never scans it. It keeps no
// record-route stamps: a RecordRoute prober does not use it.
type Memo struct {
	shards [memoShards]memoShard
}

const (
	memoShards = 64
	// memoSpins is how often a waiter yields before it parks: an exchange
	// takes microseconds, and a parked waiter pays a scheduler wake-up on
	// top (on perfbench's survey, 4 spins left p99 latency 6% above no
	// memo, 64 spins below it).
	memoSpins = 64
)

// memoShard is one lock's share of the keys. waiters counts the parked
// askers, so a fill with nobody waiting skips the broadcast.
type memoShard struct {
	mu      sync.Mutex
	cond    sync.Cond
	waiters int
	slots   map[uint64]memoSlot
}

// memoSlot is one key's state: pending (cost 0) while its owner's exchange
// is in flight, then the packed reply and cost (see packReply, packCost).
// Every finished exchange sent at least one packet, so a finished cost is
// never 0.
type memoSlot struct {
	reply, cost uint64
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	m := &Memo{}
	for i := range m.shards {
		m.shards[i].cond.L = &m.shards[i].mu
	}
	return m
}

// memoKey packs a logical probe's identity: destination << 8 | TTL.
func memoKey(dst ipv4.Addr, ttl uint8) uint64 { return uint64(dst)<<8 | uint64(ttl) }

func (m *Memo) shard(key uint64) *memoShard {
	return &m.shards[(key*0x9e3779b97f4a7c15)>>58]
}

// claim returns key's finished slot, or claims key for the caller (owner =
// true) when no prober has asked for it yet. A caller that finds key pending
// waits for its owner to settle it, and claims it itself if the owner's
// exchange failed.
func (m *Memo) claim(key uint64) (s memoSlot, owner bool) {
	sh := m.shard(key)
	sh.mu.Lock()
	for spins := 0; ; spins++ {
		s, ok := sh.slots[key]
		switch {
		case !ok:
			if sh.slots == nil {
				sh.slots = make(map[uint64]memoSlot)
			}
			sh.slots[key] = memoSlot{}
			sh.mu.Unlock()
			return memoSlot{}, true
		case s.cost != 0:
			sh.mu.Unlock()
			return s, false
		case spins < memoSpins:
			sh.mu.Unlock()
			runtime.Gosched()
			sh.mu.Lock()
		default:
			sh.waiters++
			sh.cond.Wait()
			sh.waiters--
		}
	}
}

// settle publishes the owner's outcome for a claimed key and wakes its
// waiters. A zero cost withdraws the claim instead — the exchange failed,
// or its counts do not fit a slot — so errors are never memoized and the
// next asker exchanges the probe itself.
func (m *Memo) settle(key uint64, s memoSlot) {
	sh := m.shard(key)
	sh.mu.Lock()
	if s.cost == 0 {
		delete(sh.slots, key)
	} else {
		sh.slots[key] = s
	}
	if sh.waiters > 0 {
		sh.cond.Broadcast()
	}
	sh.mu.Unlock()
}

// packReply packs a reply without its record-route stamps:
// source << 32 | IP-ID << 16 | Kind.
func packReply(r Result) uint64 {
	return uint64(r.From)<<32 | uint64(r.IPID)<<16 | uint64(r.Kind)
}

func unpackReply(w uint64) Result {
	return Result{Kind: Kind(w & 0xff), From: ipv4.Addr(w >> 32), IPID: uint16(w >> 16)}
}

// packCost packs what one exchange added to its prober's Stats:
// back-off ticks << 32 | corrupt replies << 16 | packets sent. The other
// counters follow from these and the reply: every packet after the first
// was a retry, and the logical probe was answered or timed out. It returns
// 0 when the counts do not fit.
func packCost(d Stats) uint64 {
	if d.Sent == 0 || d.Sent > 0xffff || d.Corrupt > d.Sent || d.BackoffTicks > 0xffffffff {
		return 0
	}
	return d.BackoffTicks<<32 | d.Corrupt<<16 | d.Sent
}

// replay adds a memoized exchange's accounting to the prober's Stats and
// returns its reply.
func (p *Prober) replay(s memoSlot) Result {
	res := unpackReply(s.reply)
	sent := s.cost & 0xffff
	p.stats.Sent += sent
	p.stats.Retries += sent - 1
	p.stats.Corrupt += s.cost >> 16 & 0xffff
	p.stats.BackoffTicks += s.cost >> 32
	if res.Silent() {
		p.stats.Timeouts++
	} else {
		p.stats.Answered++
	}
	p.stats.MemoHits++
	p.stats.MemoReplayed += sent
	return res
}

// MemoJournal is a memo's finished entries as three parallel columns sorted
// by key, the form a campaign checkpoint journals: Keys[i] is a probe's
// destination << 8 | TTL, and Replies[i] and Costs[i] are its packed reply
// (source << 32 | IP-ID << 16 | probe.Kind) and cost (back-off ticks << 32 |
// corrupt replies << 16 | packets sent).
type MemoJournal struct {
	Keys    []uint64 `json:"keys"`
	Replies []uint64 `json:"replies"`
	Costs   []uint64 `json:"costs"`
}

// Journal returns the memo's finished entries sorted by key; a key whose
// exchange is still in flight is left out.
func (m *Memo) Journal() *MemoJournal {
	type entry struct {
		key uint64
		memoSlot
	}
	var entries []entry
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for k, s := range sh.slots {
			if s.cost != 0 {
				entries = append(entries, entry{k, s})
			}
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(entries, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
	j := &MemoJournal{
		Keys:    make([]uint64, len(entries)),
		Replies: make([]uint64, len(entries)),
		Costs:   make([]uint64, len(entries)),
	}
	for i, e := range entries {
		j.Keys[i], j.Replies[i], j.Costs[i] = e.key, e.reply, e.cost
	}
	return j
}

// Validate checks a journal's shape: equal column lengths, keys sorted and
// unique with a TTL in 1–255, replies of a known kind (a silent one from no
// source), and costs of at least one packet with no more corrupt replies
// than packets.
func (j *MemoJournal) Validate() error {
	if len(j.Replies) != len(j.Keys) || len(j.Costs) != len(j.Keys) {
		return fmt.Errorf("probe: memo journal of %d keys, %d replies, %d costs", len(j.Keys), len(j.Replies), len(j.Costs))
	}
	for i, k := range j.Keys {
		if k>>40 != 0 || k&0xff == 0 {
			return fmt.Errorf("probe: memo journal key %#x is no destination and TTL 1-255", k)
		}
		if i > 0 && k <= j.Keys[i-1] {
			return fmt.Errorf("probe: memo journal keys unsorted or repeated at %#x", k)
		}
		r := j.Replies[i]
		// TCPReset is the last Kind.
		if r&0xff00 != 0 || Kind(r&0xff) > TCPReset || (Kind(r&0xff) == None && r != 0) {
			return fmt.Errorf("probe: memo journal reply %#x for key %#x out of range", r, k)
		}
		c := j.Costs[i]
		if sent := c & 0xffff; sent == 0 || c>>16&0xffff > sent {
			return fmt.Errorf("probe: memo journal cost %#x for key %#x out of range", c, k)
		}
	}
	return nil
}

// Seed installs a validated journal's entries. Call it before any prober
// uses the memo; a key the memo already holds keeps its entry.
func (m *Memo) Seed(j *MemoJournal) error {
	if err := j.Validate(); err != nil {
		return err
	}
	for i, k := range j.Keys {
		sh := m.shard(k)
		if sh.slots == nil {
			sh.slots = make(map[uint64]memoSlot)
		}
		if _, dup := sh.slots[k]; !dup {
			sh.slots[k] = memoSlot{reply: j.Replies[i], cost: j.Costs[i]}
		}
	}
	return nil
}
