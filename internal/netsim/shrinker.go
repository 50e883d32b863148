package netsim

import (
	"kloc/internal/kstate"
	"kloc/internal/pressure"
)

// skbuffShrinker exposes queued ingress packets to the pressure plane.
// Under reclaim the oldest undelivered packets are dropped (their
// skbuff and rx-buffer objects freed) — the kernel's answer when
// receive backlogs hold memory hostage; peers retransmit, so this is
// degradation, not loss.
type skbuffShrinker struct{ n *Net }

func (s skbuffShrinker) Name() string { return "net.skbuff" }

func (s skbuffShrinker) Count() int {
	total := 0
	for _, ino := range s.n.sockOrder {
		total += s.n.sockets[ino].rxQueue.n
	}
	return total
}

func (s skbuffShrinker) Scan(ctx *kstate.Ctx, want int) int {
	n := s.n
	freed := 0
	for _, ino := range n.sockOrder {
		if freed >= want {
			break
		}
		sock := n.sockets[ino]
		for sock.rxQueue.n > 0 && freed < want {
			p := sock.rxQueue.pop()
			n.freePacket(ctx, p)
			n.Stats.Drops++
			n.Stats.ReclaimedPackets++
			freed++
		}
	}
	return freed
}

// SkbuffShrinker exposes the receive backlogs to the pressure plane.
func (n *Net) SkbuffShrinker() pressure.Shrinker { return skbuffShrinker{n} }
