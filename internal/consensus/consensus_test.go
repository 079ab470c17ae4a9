package consensus

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"harmony/internal/protocol"
	"harmony/internal/replog"
)

// The core must stay a pure function of its inputs: this is asserted on the
// source, not left to review.
func TestCoreIsPure(t *testing.T) {
	allowed := map[string]bool{
		"harmony/internal/replog": true, "harmony/internal/protocol": true,
		"time": true, "math/rand": true, "errors": true, "fmt": true, "sort": true,
	}
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), ".go") || strings.HasSuffix(f.Name(), "_test.go") {
			continue
		}
		checked++
		file, err := parser.ParseFile(fset, f.Name(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range file.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); !allowed[path] {
				t.Errorf("%s imports %s", f.Name(), path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: go statement", fset.Position(n.Pos()))
			case *ast.SelectorExpr:
				pkg, _ := n.X.(*ast.Ident)
				if pkg == nil {
					break
				}
				if pkg.Name == "sync" || (pkg.Name == "time" && (n.Sel.Name == "Now" || n.Sel.Name == "Since" || n.Sel.Name == "After")) {
					t.Errorf("%s: %s.%s", fset.Position(n.Pos()), pkg.Name, n.Sel.Name)
				}
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no source files checked")
	}
}

const electionT = 100 * time.Millisecond

var t0 = time.Unix(1_000_000, 0)

// newCore builds a member named id over a log holding entries (terms given,
// indexes from 1), with hard state {term, ""}.
func newCore(id string, peers []string, term uint64, terms ...uint64) (*Core, *replog.Log) {
	log := replog.NewLog()
	var tail []replog.Entry
	for i, tm := range terms {
		tail = append(tail, replog.Entry{Index: uint64(i + 1), Term: tm, Op: replog.OpReevaluate})
	}
	if err := log.Restore(replog.Snapshot{}, tail); err != nil {
		panic(err)
	}
	cfg := Config{ID: id, ClientAddr: "client-" + id, Peers: peers, ElectionTimeout: electionT, Rand: rand.New(rand.NewSource(1))}
	return New(cfg, log, replog.HardState{Term: term}, t0), log
}

// saved steps c and, when the Ready wants a save, reports it done.
func saved(c *Core, now time.Time, in Input) (first, second Ready) {
	first = c.Step(now, in)
	if first.MustSave() {
		second = c.Step(now, Input{Kind: Saved})
	}
	return first, second
}

// lead makes c, a member with peers a and b, the leader of the next term by
// a's vote.
func lead(t *testing.T, c *Core) {
	t.Helper()
	_, rd := saved(c, t0.Add(time.Second), Input{Kind: Tick})
	if len(rd.Msgs) != 2 || rd.Msgs[0].Msg.Type != protocol.TypeVoteRequest {
		t.Fatalf("candidate sent %+v, want two vote requests", rd.Msgs)
	}
	_, term, _ := c.State()
	rd = c.Step(t0.Add(time.Second), Input{Kind: PeerReply, From: "a", Msg: &protocol.Message{Type: protocol.TypeVoteReply, Term: term, Granted: true}})
	if !rd.BecameLeader {
		t.Fatalf("not elected on a majority: %+v", rd)
	}
}

func TestCoreCases(t *testing.T) {
	peers := []string{"a", "b"}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"vote refused to a shorter log", func(t *testing.T) {
			c, _ := newCore("m", peers, 1, 1, 1, 1)
			rd := c.Step(t0, Input{Kind: PeerMsg, Msg: &protocol.Message{Type: protocol.TypeVoteRequest, Term: 2, From: "a", LastIndex: 2, LastTerm: 1}})
			if rd.Reply.Granted || rd.Reply.Term != 2 {
				t.Fatalf("reply = %+v, want a refusal in term 2", rd.Reply)
			}
			rd = c.Step(t0, Input{Kind: PeerMsg, Msg: &protocol.Message{Type: protocol.TypeVoteRequest, Term: 2, From: "b", LastIndex: 3, LastTerm: 1}})
			if !rd.Reply.Granted || rd.HardState == nil || rd.HardState.VotedFor != "b" {
				t.Fatalf("an up-to-date candidate was refused, or the vote not saved: %+v", rd)
			}
			rd = c.Step(t0, Input{Kind: PeerMsg, Msg: &protocol.Message{Type: protocol.TypeVoteRequest, Term: 2, From: "a", LastIndex: 9, LastTerm: 1}})
			if rd.Reply.Granted {
				t.Fatal("voted twice in one term")
			}
		}},
		{"a vote is granted only with its save", func(t *testing.T) {
			c, _ := newCore("m", peers, 1)
			rd := c.Step(t0, Input{Kind: PeerMsg, Msg: &protocol.Message{Type: protocol.TypeVoteRequest, Term: 2, From: "a"}})
			if !rd.MustSave() || !rd.Reply.Granted {
				t.Fatalf("grant without a save: %+v", rd)
			}
			rd.DropPromises()
			if rd.Reply.Granted {
				t.Fatal("DropPromises left the grant standing")
			}
			if rd = c.Step(t0, Input{Kind: Saved, Err: errors.New("disk")}); rd.MustSave() {
				t.Fatalf("the answer to a failed save wants a save: %+v", rd)
			}
			if rd = c.Step(t0, Input{Kind: Tick}); rd.HardState == nil || rd.HardState.VotedFor != "a" {
				t.Fatalf("the unsaved vote is not offered again: %+v", rd)
			}
		}},
		{"a candidate neither asks nor counts itself before its term is saved", func(t *testing.T) {
			c, _ := newCore("m", nil, 0)
			rd := c.Step(t0, Input{Kind: Tick})
			if rd.HardState == nil || rd.HardState.Term != 1 || rd.HardState.VotedFor != "m" {
				t.Fatalf("hard state = %+v, want term 1 voted m", rd.HardState)
			}
			if rd = c.Step(t0, Input{Kind: Saved, Err: errors.New("disk")}); rd.BecameLeader {
				t.Fatal("a peerless member counted a vote no disk holds")
			}
			p, _ := newCore("m", peers, 0)
			rd = p.Step(t0.Add(time.Second), Input{Kind: Tick})
			if len(rd.Msgs) != 0 {
				t.Fatalf("vote requests ahead of the save: %+v", rd.Msgs)
			}
			if rd = p.Step(t0.Add(time.Second), Input{Kind: Saved, Err: errors.New("disk")}); len(rd.Msgs) != 0 {
				t.Fatalf("vote requests after a failed save: %+v", rd.Msgs)
			}
		}},
		{"peerless member leads at construction", func(t *testing.T) {
			c, log := newCore("m", nil, 0)
			_, rd := saved(c, t0, Input{Kind: Tick})
			if role, term, leader := c.State(); !rd.BecameLeader || role != Leader || term != 1 || leader != "client-m" {
				t.Fatalf("after the first tick: %s of term %d (%q), became leader %v", role, term, leader, rd.BecameLeader)
			}
			first, second := saved(c, t0, Input{Kind: Propose, Entry: &replog.Entry{Op: replog.OpReevaluate}})
			if first.Index != 1 || first.Commit != 0 || second.Commit != 1 || log.Commit() != 1 {
				t.Fatalf("proposal: %+v then %+v; it commits with its save, not before", first, second)
			}
		}},
		{"step-down on higher term fails pending proposals with not-leader", func(t *testing.T) {
			c, _ := newCore("m", peers, 1)
			lead(t, c)
			first, _ := saved(c, t0.Add(time.Second), Input{Kind: Propose, Entry: &replog.Entry{Op: replog.OpReevaluate}})
			if first.Index != 1 {
				t.Fatalf("proposal not accepted: %+v", first)
			}
			rd := c.Step(t0.Add(time.Second), Input{Kind: PeerMsg, Msg: &protocol.Message{Type: protocol.TypeAppendEntries, Term: 9, From: "b", Leader: "client-b"}})
			var nl *ErrNotLeader
			if !rd.SteppedDown || len(rd.Failed) != 1 || rd.Failed[0].Index != 1 || !errors.As(rd.Failed[0].Err, &nl) {
				t.Fatalf("step-down = %+v", rd)
			}
			if rd = c.Step(t0.Add(time.Second), Input{Kind: Propose, Entry: &replog.Entry{Op: replog.OpReevaluate}}); !errors.As(rd.Err, &nl) || nl.LeaderClient != "client-b" {
				t.Fatalf("proposal on a follower: %+v", rd)
			}
		}},
		{"no quorum at the deadline", func(t *testing.T) {
			c, _ := newCore("m", peers, 1)
			lead(t, c)
			at := t0.Add(time.Second)
			saved(c, at, Input{Kind: Propose, Entry: &replog.Entry{Op: replog.OpReevaluate}})
			if rd := c.Step(at.Add(4*electionT-time.Millisecond), Input{Kind: Tick}); len(rd.Failed) != 0 {
				t.Fatalf("failed before the deadline: %+v", rd.Failed)
			}
			rd := c.Step(at.Add(4*electionT), Input{Kind: Tick})
			if len(rd.Failed) != 1 || rd.Failed[0].Index != 1 || !errors.Is(rd.Failed[0].Err, ErrNoQuorum) {
				t.Fatalf("at the deadline: %+v", rd.Failed)
			}
			if rd = c.Step(at.Add(5*electionT), Input{Kind: Tick}); len(rd.Failed) != 0 {
				t.Fatalf("failed twice: %+v", rd.Failed)
			}
		}},
		{"persist-failed is not counted", func(t *testing.T) {
			c, log := newCore("m", nil, 0)
			saved(c, t0, Input{Kind: Tick})
			saved(c, t0, Input{Kind: Propose, Entry: &replog.Entry{Op: replog.OpReevaluate}})
			disk := errors.New("disk full")
			rd := c.Step(t0, Input{Kind: Propose, Entry: &replog.Entry{Op: replog.OpReevaluate}})
			if rd.Index != 2 || rd.Rewrite {
				t.Fatalf("second proposal: %+v, want an in-order append of entry 2", rd)
			}
			rd = c.Step(t0, Input{Kind: Saved, Err: disk})
			if len(rd.Failed) != 1 || rd.Failed[0].Index != 2 || !errors.Is(rd.Failed[0].Err, disk) || rd.Commit != 1 {
				t.Fatalf("after the failed save: %+v, want entry 2 failed with the disk's error and commit still 1", rd)
			}
			if rd = c.Step(t0, Input{Kind: Tick}); rd.Commit != 1 {
				t.Fatalf("commit moved to %d on an entry no disk holds", rd.Commit)
			}
			first, second := saved(c, t0, Input{Kind: Propose, Entry: &replog.Entry{Op: replog.OpReevaluate}})
			if !first.Rewrite || second.Commit != 3 || log.Commit() != 3 {
				t.Fatalf("the next write must rewrite the tail and carry both entries: %+v then %+v", first, second)
			}
		}},
		{"a follower commits only what the message vouches for", func(t *testing.T) {
			// 4..5 are a stale term-1 suffix the cluster never committed; the
			// new leader's log ends at 3 and its commit index has moved on.
			c, log := newCore("m", peers, 1, 1, 1, 1, 1, 1)
			log.SetCommit(3)
			rd := c.Step(t0, Input{Kind: PeerMsg, Msg: &protocol.Message{
				Type: protocol.TypeAppendEntries, Term: 2, From: "a", PrevIndex: 3, PrevTerm: 1, CommitIndex: 5,
			}})
			if !rd.Reply.Success || rd.Commit != 3 || log.Commit() != 3 {
				t.Fatalf("reply %+v, commit %d: want success and commit still 3", rd.Reply, log.Commit())
			}
		}},
		{"an append or install is acknowledged only with its save", func(t *testing.T) {
			c, log := newCore("m", peers, 1)
			rd := c.Step(t0, Input{Kind: PeerMsg, Msg: &protocol.Message{
				Type: protocol.TypeAppendEntries, Term: 1, From: "a", Entries: []replog.Entry{{Index: 1, Term: 1, Op: replog.OpReevaluate}},
			}})
			if !rd.Rewrite || len(rd.Entries) != 1 || !rd.Reply.Success {
				t.Fatalf("first append after a start: %+v, want a tail rewrite carrying the entry", rd)
			}
			rd.DropPromises()
			if rd.Reply.Success || rd.Reply.MatchIndex != 0 {
				t.Fatalf("DropPromises left %+v", rd.Reply)
			}
			c.Step(t0, Input{Kind: Saved, Err: errors.New("disk")})
			// A save of the hard state alone says nothing about the log file.
			if rd = c.Step(t0, Input{Kind: PeerMsg, Msg: &protocol.Message{Type: protocol.TypeVoteRequest, Term: 1, From: "b", LastIndex: 1, LastTerm: 1}}); !rd.Reply.Granted || rd.Rewrite {
				t.Fatalf("vote: %+v", rd)
			}
			c.Step(t0, Input{Kind: Saved})
			// The resend finds the entry in the log already; the file still
			// lacks it, so the acknowledgement again waits for a rewrite.
			rd = c.Step(t0, Input{Kind: PeerMsg, Msg: &protocol.Message{
				Type: protocol.TypeAppendEntries, Term: 1, From: "a", Entries: []replog.Entry{{Index: 1, Term: 1, Op: replog.OpReevaluate}},
			}})
			if !rd.Rewrite || !rd.Reply.Success || rd.Reply.MatchIndex != 1 {
				t.Fatalf("resent append: %+v", rd)
			}
			c.Step(t0, Input{Kind: Saved})
			snap := replog.Snapshot{Index: 7, Term: 1}
			rd = c.Step(t0, Input{Kind: PeerMsg, Msg: &protocol.Message{Type: protocol.TypeInstallSnapshot, Term: 1, From: "a", Snapshot: &snap}})
			if rd.Snapshot == nil || !rd.Rewrite || !rd.Reply.Success || rd.Reply.MatchIndex != 7 {
				t.Fatalf("install: %+v", rd)
			}
			log.CompactTo(snap) // the owner installs it; the write then fails
			c.Step(t0, Input{Kind: Saved, Err: errors.New("disk")})
			rd = c.Step(t0, Input{Kind: PeerMsg, Msg: &protocol.Message{Type: protocol.TypeInstallSnapshot, Term: 1, From: "a", Snapshot: &snap}})
			if !rd.MustSave() || !rd.Rewrite {
				t.Fatalf("a snapshot the file lacks was acknowledged without a write: %+v", rd)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}
