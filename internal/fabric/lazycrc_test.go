package fabric

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"
)

// eagerPacket is the reference model for the lazy seal: the checksum is
// computed at every seal over a private copy of the content, and every flip
// lands in that copy.
type eagerPacket struct {
	content []byte
	crc     uint32
	valid   bool
}

func (e *eagerPacket) seal() {
	e.crc = crc32.ChecksumIEEE(e.content)
	e.valid = true
}

func (e *eagerPacket) corrupt(bit int, reseal bool) {
	if len(e.content) == 0 {
		return
	}
	idx := (bit / 8) % len(e.content)
	e.content[idx] ^= 1 << (bit % 8)
	e.valid = false
	if reseal {
		e.seal()
	}
}

func (e *eagerPacket) ok() bool {
	return e.valid || e.crc == crc32.ChecksumIEEE(e.content)
}

func (e *eagerPacket) clone() eagerPacket {
	return eagerPacket{content: append([]byte(nil), e.content...), crc: e.crc, valid: e.valid}
}

func content(p *Packet) []byte {
	return append(append([]byte(nil), p.Payload...), p.Body...)
}

// TestPropertyLazyCRCMatchesEager drives random sequences of seal, pre-seal
// and post-seal corruption, reseal, double flips of one bit and speculative
// rollbacks through packets that own their content and packets whose Body
// references a sender buffer. At every step the lazy packet must give the
// eager model's CRCOk verdict and content, and the referenced bytes must
// never change.
func TestPropertyLazyCRCMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 2000; trial++ {
		p := GetPacket()
		var sender, pristine []byte
		if rng.Intn(2) == 0 {
			// Owned: everything in the pooled buffer.
			rng.Read(p.Buf(rng.Intn(64)))
		} else {
			// Referencing: a header in the pooled buffer, the body aliasing
			// a sender buffer at some offset (possibly empty).
			rng.Read(p.Buf(1 + rng.Intn(40)))
			sender = make([]byte, rng.Intn(300))
			rng.Read(sender)
			pristine = append([]byte(nil), sender...)
			lo := rng.Intn(len(sender) + 1)
			hi := lo + rng.Intn(len(sender)-lo+1)
			p.Body = sender[lo:hi:hi]
		}
		model := eagerPacket{content: content(p)}
		var trace []string
		check := func(op string) {
			t.Helper()
			trace = append(trace, op)
			if got, want := p.CRCOk(), model.ok(); got != want {
				t.Fatalf("trial %d after %v: CRCOk=%v, eager model says %v", trial, trace, got, want)
			}
			if !bytes.Equal(content(p), model.content) {
				t.Fatalf("trial %d after %v: content diverged from the model", trial, trace)
			}
			if !bytes.Equal(sender, pristine) {
				t.Fatalf("trial %d after %v: the referenced sender buffer changed", trial, trace)
			}
		}
		check("new")
		for step := 0; step < 12; step++ {
			bit := rng.Intn(16*model.lenOr1() + 1)
			switch rng.Intn(6) {
			case 0:
				p.SealCRC()
				model.seal()
				check("seal")
			case 1:
				// Pre-seal fault: damage, then the seal covers it.
				p.CorruptPayload(bit, true)
				model.corrupt(bit, true)
				check("corrupt-preseal")
			case 2:
				p.CorruptPayload(bit, false)
				model.corrupt(bit, false)
				check("corrupt")
			case 3:
				// The same bit twice restores the content; a stale CRC
				// then matches again.
				p.CorruptPayload(bit, false)
				model.corrupt(bit, false)
				check("flip")
				p.CorruptPayload(bit, false)
				model.corrupt(bit, false)
				check("flip-back")
			case 4:
				check("verify")
			case 5:
				// A speculative span: first-touch shadow, journaled flips,
				// then rollback newest-first as the engine replays it.
				p.SpecSave()
				saved := model.clone()
				var bits []int
				for k := rng.Intn(3); k >= 0; k-- {
					b := rng.Intn(16*model.lenOr1() + 1)
					if p.contentLen() > 0 {
						bits = append(bits, b)
					}
					p.CorruptPayload(b, rng.Intn(2) == 0)
				}
				for i := len(bits) - 1; i >= 0; i-- {
					pktUndoXOR(p, nil, uint64(bits[i]), 0)
				}
				p.SpecRestore()
				model = saved
				check("rollback")
			}
		}
		p.Release()
	}
}

func (e *eagerPacket) lenOr1() int {
	if len(e.content) == 0 {
		return 1
	}
	return len(e.content)
}
