package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"harmony/internal/protocol"
)

// TestDispatchAnswersEveryMessageType holds the two dispatchers, conn.handle
// for clients and handlePeer for replicas, to the message types
// internal/protocol declares. Every MsgType constant in protocol.go must be
// classified below; each dispatcher must handle its own requests, and must
// answer everything else, a reply type or one nobody registered, with its
// default's "unknown ... message type" error, so no message goes unanswered.
func TestDispatchAnswersEveryMessageType(t *testing.T) {
	const client, peer = 1, 2 // a request this dispatcher handles; 0 is a reply
	class := map[string]int{
		"TypeStartup": client, "TypeBundleSetup": client, "TypeAddVariable": client,
		"TypeReport": client, "TypeEnd": client, "TypeStatus": client,
		"TypeReevaluate": client, "TypeHeartbeat": client, "TypeResume": client,
		"TypeNodeState": client, "TypeClusterStatus": client | peer,
		"TypeVoteRequest": peer, "TypeAppendEntries": peer, "TypeInstallSnapshot": peer,
		"TypeVoteReply": 0, "TypeAppendReply": 0, "TypeAck": 0, "TypeError": 0,
		"TypeUpdate": 0, "TypeStatusReply": 0, "TypeClusterStatusReply": 0,
	}

	types := map[string]protocol.MsgType{}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filepath.Join("..", "protocol", "protocol.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if typ, ok := vs.Type.(*ast.Ident); !ok || typ.Name != "MsgType" {
				continue
			}
			for i, name := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok {
					t.Fatalf("%s: %s is not a string literal", fset.Position(name.Pos()), name.Name)
				}
				val, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				types[name.Name] = protocol.MsgType(val)
				if _, ok := class[name.Name]; !ok {
					t.Errorf("%s: protocol.%s (%q) is not classified as a client request, a peer request or a reply", fset.Position(name.Pos()), name.Name, val)
				}
			}
		}
	}
	if len(types) != len(class) {
		t.Errorf("protocol.go declares %d message types, the classification names %d", len(types), len(class))
	}
	types["(unregistered)"] = "no_such_type"

	srv, _ := startTestServer(t, Config{})
	ours, theirs := net.Pipe()
	defer ours.Close()
	defer theirs.Close()
	c := &conn{srv: srv, netConn: ours, writer: protocol.NewWriter(ours), instances: map[int]bool{}}
	unknown := regexp.MustCompile(`^unknown .*message type`)
	for name, typ := range types {
		for _, d := range []struct {
			who    string
			bit    int
			handle func(*protocol.Message) *protocol.Message
		}{{"conn.handle", client, c.handle}, {"handlePeer", peer, srv.rep.handlePeer}} {
			// The bare message of each type: a request lacking its fields is
			// refused by its own case, which is not the default's error.
			reply := d.handle(&protocol.Message{Type: typ})
			defaulted := reply != nil && reply.Type == protocol.TypeError && unknown.MatchString(reply.Error)
			switch handled := class[name]&d.bit != 0; {
			case handled && defaulted:
				t.Errorf("%s: %s (%q) fell through to the default: %s", d.who, name, typ, reply.Error)
			case !handled && !defaulted:
				t.Errorf("%s: %s (%q) was answered %+v, want the default's unknown message type error", d.who, name, typ, reply)
			}
		}
	}
}
