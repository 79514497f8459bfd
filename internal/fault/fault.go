// Package fault is a deterministic, seedable fault-injection layer
// for the durability and cache stack. It has two halves:
//
//   - An FS/File abstraction (fs.go) mirroring the handful of os calls
//     the WAL, checkpointer, and object stash actually make. Production
//     code takes a fault.FS and defaults to fault.OS, the passthrough.
//     NewFS wraps the real filesystem with an Injector so tests and the
//     chaos harness can fail the Nth write, tear a write short, fail an
//     fsync, return ENOSPC, or break a rename — on an exact, replayable
//     schedule.
//   - The Injector itself: a seeded rule set any seam can consult
//     through Check. The fam and cache seams are plain-func hooks the
//     chaos harness drives from its own seeded schedule.
//
// Determinism contract: given the same seed and the same sequence of
// Check/CheckWrite calls, an Injector fires the same faults. All
// randomness comes from the seeded source; no time or global state.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
)

// Op names an interception point checked by the fault FS.
type Op string

const (
	OpOpen     Op = "open"
	OpRead     Op = "read"
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpClose    Op = "close"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpTruncate Op = "truncate"
	OpSyncDir  Op = "syncdir"
)

// ErrInjected is the default error attached to a firing rule.
var ErrInjected = errors.New("fault: injected error")

// ErrNoSpace simulates ENOSPC without depending on a platform syscall
// value.
var ErrNoSpace = errors.New("fault: injected ENOSPC: no space left on device")

// Rule arms one fault. A rule fires for a Check(op, path) call when the
// op matches, the path matches (empty Path matches everything; otherwise
// Path is a filepath.Match glob tried against both the full path and its
// base name), and either this is the Nth matching call (1-based) or the
// seeded coin with probability Prob comes up. Once disarms the rule
// after its first firing.
type Rule struct {
	Op   Op
	Path string
	// Nth fires on the Nth matching call, 1-based. 0 disables the
	// counter trigger (Prob alone decides).
	Nth uint64
	// Prob fires each matching call with this probability, drawn from
	// the injector's seeded source.
	Prob float64
	// Err is the error to return; nil means ErrInjected.
	Err error
	// Torn applies to OpWrite only: a seeded-random strict prefix of the
	// buffer reaches the underlying file before the error returns,
	// simulating a torn write at a crash point.
	Torn bool
	// Once disarms the rule after it fires once.
	Once bool
}

// Event records one fired fault, for reports and seed reproduction.
type Event struct {
	Seq  int    `json:"seq"`
	Op   Op     `json:"op"`
	Path string `json:"path"`
	Rule int    `json:"rule"`
	Err  string `json:"err"`
	// TornBytes is the prefix length persisted by a torn write; -1 for
	// every other op.
	TornBytes int `json:"torn_bytes"`
}

func (e Event) String() string {
	if e.TornBytes >= 0 {
		return fmt.Sprintf("#%d %s %s rule=%d torn=%dB: %s", e.Seq, e.Op, e.Path, e.Rule, e.TornBytes, e.Err)
	}
	return fmt.Sprintf("#%d %s %s rule=%d: %s", e.Seq, e.Op, e.Path, e.Rule, e.Err)
}

type ruleState struct {
	Rule
	matches uint64
	spent   bool
}

// Injector decides, per intercepted operation, whether to fail it.
// Safe for concurrent use. The zero value and the nil injector never
// fire.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	armed  bool
	rules  []*ruleState
	events []Event
	seq    int
}

// NewInjector returns an armed injector whose probabilistic choices and
// torn-write lengths derive from seed.
func NewInjector(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), armed: true}
}

// Add arms a rule. Returns the rule's index, referenced by Event.Rule.
func (in *Injector) Add(r Rule) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = append(in.rules, &ruleState{Rule: r})
	return len(in.rules) - 1
}

// Arm enables fault firing. Rules still count matches while disarmed is
// false; see Disarm.
func (in *Injector) Arm() { in.setArmed(true) }

// Disarm suspends fault firing entirely: no rule matches are counted
// and no coins are drawn, so setup and teardown I/O neither fires nor
// perturbs the schedule.
func (in *Injector) Disarm() { in.setArmed(false) }

func (in *Injector) setArmed(v bool) {
	in.mu.Lock()
	in.armed = v
	in.mu.Unlock()
}

// Events returns a copy of every fault fired so far, in order.
func (in *Injector) Events() []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, len(in.events))
	copy(out, in.events)
	return out
}

// Fired reports whether any fault with the given op has fired.
func (in *Injector) Fired(op Op) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, e := range in.events {
		if e.Op == op {
			return true
		}
	}
	return false
}

// Check consults the rules for a non-write operation and returns the
// injected error, or nil to let the operation through. Nil-safe.
func (in *Injector) Check(op Op, path string) error {
	err, _ := in.check(op, path, -1)
	return err
}

// CheckWrite consults the rules for a write of n bytes. It returns the
// injected error (nil = proceed) and, when the firing rule is Torn, the
// number of leading bytes the caller must still write to the underlying
// file before returning the error; torn < 0 means write nothing.
func (in *Injector) CheckWrite(path string, n int) (err error, torn int) {
	return in.check(OpWrite, path, n)
}

func (in *Injector) check(op Op, path string, writeLen int) (error, int) {
	if in == nil {
		return nil, -1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.armed {
		return nil, -1
	}
	for i, rs := range in.rules {
		if rs.spent || rs.Op != op || !pathMatch(rs.Path, path) {
			continue
		}
		rs.matches++
		fire := rs.Nth != 0 && rs.matches == rs.Nth
		if !fire && rs.Prob > 0 {
			fire = in.rng.Float64() < rs.Prob
		}
		if !fire {
			continue
		}
		if rs.Once || rs.Nth != 0 {
			rs.spent = true
		}
		err := rs.Err
		if err == nil {
			err = ErrInjected
		}
		torn := -1
		if rs.Torn && writeLen > 0 {
			torn = in.rng.Intn(writeLen) // strict prefix: 0..writeLen-1
		}
		in.seq++
		in.events = append(in.events, Event{
			Seq: in.seq, Op: op, Path: path, Rule: i,
			Err: err.Error(), TornBytes: torn,
		})
		return err, torn
	}
	return nil, -1
}

func pathMatch(pattern, path string) bool {
	if pattern == "" {
		return true
	}
	if ok, _ := filepath.Match(pattern, path); ok {
		return true
	}
	ok, _ := filepath.Match(pattern, filepath.Base(path))
	return ok
}
