package gm

import (
	"reflect"
	"testing"

	"repro/internal/ckpt"
)

// portAnchor maps each gm.Port field the recovery anchor captures to the
// ckpt.PortCheckpoint fields that carry it.
var portAnchor = map[string][]string{
	"id":         {"Port"},
	"shadow":     {"SendTokens", "RecvTokens", "SeqStreams"},
	"nextToken":  {"NextToken"},
	"regions":    {"Regions"},
	"nextRegion": {"NextRegion"},
}

// portNotAnchored lists every gm.Port field the anchor leaves out, each
// with the reason a restore does not need it.
var portNotAnchored = map[string]string{
	"node":         "derived: the back-pointer to the slot the port is restored on",
	"open":         "derived: every captured port is open; a restored port reopens",
	"sendTokens":   "derived: the token pool less the outstanding sends",
	"callbacks":    "transient: closures die with the host; reattach re-arms them",
	"recvHandler":  "transient: an application closure, reinstalled by reattach",
	"alarmHandler": "transient: an application closure, reinstalled by reattach",
	"polling":      "transient: an application mode, re-enabled by reattach",
	"pollQueue":    "transient: empty at a drained instant",
	"recovering":   "transient: zero at a drained instant",
	"peerEpoch":    "KNOWN HOLE: readmission epochs are not in GMCK v1 (ROADMAP item 3)",
	"tokPend":      "transient: empty at a drained instant",
	"recvPend":     "transient: empty at a drained instant",
	"cbPend":       "transient: empty at a drained instant",
	"postPend":     "transient: empty at a drained instant",
	"stats":        "transient: the dead process's counters; a restored port starts at zero",
	"ckptMark":     "transient: a periodic chain's dirty stamp; the chain dies with the host",
	"regionMarks":  "transient: a periodic chain's dirty stamps; the chain dies with the host",
	"specMark":     "transient: speculation journaling",
	"specShadow":   "transient: speculation journaling",
}

// TestHostFaultPortFieldCoverage: every field of gm.Port is either captured
// by the recovery anchor or declared left out with a reason, and every
// field of the port record is claimed by some Port field. A field added to
// Port without deciding which fails here — the bug class that once lost
// the polling drain and the directed-send state from checkpoints.
func TestHostFaultPortFieldCoverage(t *testing.T) {
	rec := reflect.TypeOf(ckpt.PortCheckpoint{})
	claimed := map[string]bool{}
	for field, into := range portAnchor {
		if _, dup := portNotAnchored[field]; dup {
			t.Errorf("Port.%s is both captured and declared left out", field)
		}
		for _, f := range into {
			if _, ok := rec.FieldByName(f); !ok {
				t.Errorf("Port.%s: captured into PortCheckpoint.%s, which does not exist", field, f)
			}
			claimed[f] = true
		}
	}
	for i := 0; i < rec.NumField(); i++ {
		if f := rec.Field(i).Name; !claimed[f] {
			t.Errorf("PortCheckpoint.%s is claimed by no Port field", f)
		}
	}

	port := reflect.TypeOf(Port{})
	seen := map[string]bool{}
	for i := 0; i < port.NumField(); i++ {
		f := port.Field(i).Name
		seen[f] = true
		_, captured := portAnchor[f]
		_, left := portNotAnchored[f]
		if !captured && !left {
			t.Errorf("Port.%s is neither captured by the anchor nor declared left out", f)
		}
	}
	for f := range portAnchor {
		if !seen[f] {
			t.Errorf("portAnchor names Port.%s, which does not exist", f)
		}
	}
	for f := range portNotAnchored {
		if !seen[f] {
			t.Errorf("portNotAnchored names Port.%s, which does not exist", f)
		}
	}
}
