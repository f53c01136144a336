package netsim

import (
	"bytes"
	"strings"
	"testing"

	"tracenet/internal/ipv4"
	"tracenet/internal/wire"
)

func TestJSONRoundTrip(t *testing.T) {
	topo := fig3(t)
	// Dress it up with non-default state.
	topo.Routers[4].IndirectPolicy = PolicyShortestPath
	topo.Routers[3].ReplyLoss = 0.25
	topo.Routers[2].EmitUnreachable = true
	topo.Routers[2].DirectProtos = ProtoMaskICMP
	topo.IfaceByAddr(addr("10.0.2.2")).Responsive = false
	topo.SubnetByPrefix(ipv4.MustParsePrefix("10.0.3.0/31")).Unresponsive = true

	var buf bytes.Buffer
	if err := topo.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if len(got.Routers) != len(topo.Routers) || len(got.Subnets) != len(topo.Subnets) {
		t.Fatalf("sizes: %d/%d routers, %d/%d subnets",
			len(got.Routers), len(topo.Routers), len(got.Subnets), len(topo.Subnets))
	}
	for _, orig := range topo.Routers {
		var round *Router
		for _, r := range got.Routers {
			if r.Name == orig.Name {
				round = r
			}
		}
		if round == nil {
			t.Fatalf("router %s lost", orig.Name)
		}
		if round.IsHost != orig.IsHost ||
			round.DirectPolicy != orig.DirectPolicy ||
			round.IndirectPolicy != orig.IndirectPolicy ||
			round.DirectProtos != orig.DirectProtos ||
			round.IndirectProtos != orig.IndirectProtos ||
			round.EmitUnreachable != orig.EmitUnreachable ||
			round.ReplyLoss != orig.ReplyLoss ||
			len(round.Ifaces) != len(orig.Ifaces) {
			t.Fatalf("router %s changed: %+v vs %+v", orig.Name, round, orig)
		}
	}
	if got.IfaceByAddr(addr("10.0.2.2")).Responsive {
		t.Fatal("unresponsive interface flag lost")
	}
	if !got.SubnetByPrefix(ipv4.MustParsePrefix("10.0.3.0/31")).Unresponsive {
		t.Fatal("unresponsive subnet flag lost")
	}

	// Behavioural check: the round-tripped network answers probes the same.
	n := New(got, Config{})
	p, err := n.PortFor("vantage")
	if err != nil {
		t.Fatal(err)
	}
	reply := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), addr("10.0.2.3"), 8, 1, 1))
	if reply == nil || reply.IP.Src != addr("10.0.2.3") {
		t.Fatalf("round-tripped network misbehaves: %+v", reply)
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":        "not json",
		"bad prefix":     `{"subnets":[{"prefix":"10.0.0.0/99"}],"routers":[]}`,
		"bad policy":     `{"subnets":[{"prefix":"10.0.0.0/30"}],"routers":[{"name":"a","direct_policy":"bogus","ifaces":[{"addr":"10.0.0.1"}]}]}`,
		"uncovered addr": `{"subnets":[{"prefix":"10.0.0.0/30"}],"routers":[{"name":"a","ifaces":[{"addr":"172.0.0.1"}]}]}`,
		"bad addr":       `{"subnets":[{"prefix":"10.0.0.0/30"}],"routers":[{"name":"a","ifaces":[{"addr":"nope"}]}]}`,
	}
	for name, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadJSON succeeded", name)
		}
	}

	// Overlapping subnets fail with the same named pair on every read. An
	// address under both subnets has no one subnet to attach to, so the
	// check must come before any interface is attached.
	for i := 0; i < 20; i++ {
		_, err := ReadJSON(strings.NewReader(overlapJSON))
		if want := "netsim: overlapping subnets 10.0.0.0/24 and 10.0.0.0/30"; err == nil || err.Error() != want {
			t.Fatalf("read %d: err = %v, want %q", i, err, want)
		}
	}
}

// overlapJSON declares a /24 that covers one of two /30s, with routers on
// addresses under both.
const overlapJSON = `{"subnets": [{"prefix": "10.0.0.0/24"}, {"prefix": "10.0.0.0/30"}, {"prefix": "10.0.1.0/30"}],
 "routers": [{"name": "a", "ifaces": [{"addr": "10.0.0.1"}]},
             {"name": "b", "ifaces": [{"addr": "10.0.0.2"}]},
             {"name": "c", "ifaces": [{"addr": "10.0.0.100"}]}]}`
