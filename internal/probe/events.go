package probe

import (
	"fmt"
	"strconv"

	"tracenet/internal/ipv4"
	"tracenet/internal/wire"
)

// ErrKind classifies how a probe exchange failed to produce a usable reply —
// the distinction the old transcript log collapsed into a raw err string.
// Timeouts are ordinary measurement outcomes (silent-by-design address
// space accumulates them); transport and decode failures are fault evidence.
type ErrKind uint8

const (
	// ErrNone: the exchange produced a decodable reply.
	ErrNone ErrKind = iota
	// ErrTimeout: the network stayed silent within the timeout window.
	ErrTimeout
	// ErrTransportFault: the Transport itself failed (socket error, netsim
	// refusing an injection) — the condition ErrTransport wraps.
	ErrTransportFault
	// ErrDecode: a reply arrived but did not parse (mangled datagram).
	ErrDecode
)

func (k ErrKind) String() string {
	switch k {
	case ErrNone:
		return "none"
	case ErrTimeout:
		return "timeout"
	case ErrTransportFault:
		return "transport"
	case ErrDecode:
		return "decode"
	}
	return fmt.Sprintf("errkind(%d)", uint8(k))
}

// ProbeEvent is one probe exchange on tracenet's telemetry event stream: the
// decoded request, the classified outcome, and — when a reply arrived — the
// responder's address, the reply datagram's remaining TTL, and its IP
// identifier. The flight recorder retains these, LoggingTransport streams
// them live, and golden tests replay them.
type ProbeEvent struct {
	Ticks    uint64
	Proto    string
	Dst      ipv4.Addr
	TTL      uint8
	Err      ErrKind
	Outcome  string // reply classification; "" when Err != ErrNone
	From     ipv4.Addr
	ReplyTTL uint8
	IPID     uint16
	// RawLen is the undecodable payload size for ErrDecode events.
	RawLen int
}

// String renders the event as the one-line transcript form:
//
//	icmp 10.0.5.2 ttl=3 -> ttl-exceeded from 10.0.2.1 rttl=61 ipid=3063
func (e ProbeEvent) String() string {
	return string(e.AppendText(nil))
}

// AppendText appends the String form to dst and returns the extended slice —
// the allocation-free rendering path the prober's telemetry hot path uses
// with a reused buffer. Byte-identical to String by construction.
func (e ProbeEvent) AppendText(dst []byte) []byte {
	dst = append(dst, e.Proto...)
	dst = append(dst, ' ')
	dst = e.Dst.AppendText(dst)
	dst = append(dst, " ttl="...)
	dst = strconv.AppendUint(dst, uint64(e.TTL), 10)
	dst = append(dst, " -> "...)
	switch e.Err {
	case ErrTimeout:
		dst = append(dst, "timeout"...)
	case ErrTransportFault:
		dst = append(dst, "error: transport"...)
	case ErrDecode:
		dst = append(dst, "error: decode("...)
		dst = strconv.AppendInt(dst, int64(e.RawLen), 10)
		dst = append(dst, " bytes)"...)
	default:
		dst = append(dst, e.Outcome...)
		dst = append(dst, " from "...)
		dst = e.From.AppendText(dst)
		dst = append(dst, " rttl="...)
		dst = strconv.AppendUint(dst, uint64(e.ReplyTTL), 10)
		dst = append(dst, " ipid="...)
		dst = strconv.AppendUint(dst, uint64(e.IPID), 10)
	}
	return dst
}

// exchangeEvent builds the event for one raw exchange, classifying the error
// kind and, for decodable replies, the reply type. It works from wire bytes
// alone (no prober state), so LoggingTransport can observe any transport; the
// prober itself uses probeEvent with the packets it already decoded.
func exchangeEvent(ticks uint64, raw, reply []byte, err error) ProbeEvent {
	//lint:ignore wireerr an undecodable request degrades the event to proto "?" by design
	sent, _ := wire.Decode(raw)
	var rp *wire.Packet
	var derr error
	if err == nil && reply != nil {
		rp, derr = wire.Decode(reply)
	}
	return probeEvent(ticks, sent, rp, reply, err, derr)
}

// probeEvent builds the event from already-decoded packets — the prober's
// zero-re-decode path. sent may be nil (undecodable request bytes); reply is
// consulted only when err == nil, rawReply != nil, and derr == nil.
func probeEvent(ticks uint64, sent, reply *wire.Packet, rawReply []byte, err, derr error) ProbeEvent {
	ev := ProbeEvent{Ticks: ticks, Proto: "?"}
	if sent != nil {
		ev.Dst = sent.IP.Dst
		ev.TTL = sent.IP.TTL
		switch {
		case sent.ICMP != nil:
			ev.Proto = "icmp"
		case sent.UDP != nil:
			ev.Proto = "udp"
		case sent.TCP != nil:
			ev.Proto = "tcp"
		}
	}
	switch {
	case err != nil:
		ev.Err = ErrTransportFault
	case rawReply == nil:
		ev.Err = ErrTimeout
	case derr != nil:
		ev.Err = ErrDecode
		ev.RawLen = len(rawReply)
	default:
		ev.From = reply.IP.Src
		ev.ReplyTTL = reply.IP.TTL
		ev.IPID = reply.IP.ID
		ev.Outcome = replyName(reply)
	}
	return ev
}

// replyName classifies a decoded reply packet by its wire type.
func replyName(p *wire.Packet) string {
	switch {
	case p.ICMP != nil && p.ICMP.Type == wire.ICMPEchoReply:
		return "echo-reply"
	case p.ICMP != nil && p.ICMP.Type == wire.ICMPTimeExceeded:
		return "ttl-exceeded"
	case p.ICMP != nil && p.ICMP.Type == wire.ICMPDestUnreach && p.ICMP.Code == wire.CodePortUnreach:
		return "port-unreachable"
	case p.ICMP != nil && p.ICMP.Type == wire.ICMPDestUnreach:
		return fmt.Sprintf("unreachable(code %d)", p.ICMP.Code)
	case p.TCP != nil && p.TCP.Flags&wire.TCPFlagRST != 0:
		return "tcp-rst"
	case p.TCP != nil:
		return "tcp"
	}
	return "reply"
}
