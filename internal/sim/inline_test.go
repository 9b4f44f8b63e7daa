package sim

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// inlineRequired lists, per package directory, the functions that must stay
// inlinable: the journaling gates (spec.go) and the component wrappers
// around them on the hot paths. Outside a speculative span each must cost
// its call site one load and one branch, never a call.
var inlineRequired = map[string][]string{
	"internal/sim": {
		"(*Engine).SpecTouch", "(*Engine).SpecUndo",
		"(*Engine).SpecOnCommit", "(*Engine).SpecActive",
	},
	"internal/mcp": {
		"(*MCP).specTouch", "(*MCP).touchTx", "(*MCP).touchRx",
		"(*MCP).touchMsg", "(*MCP).touchPort", "(*MCP).touchPartial",
	},
	"internal/lanai": {"(*Chip).specTouch"},
	"internal/fabric": {
		"(*Packet).SpecTouch", "(*Packet).ReleaseSpec", "GetPacketSpec",
	},
	"internal/host": {"(*CPUAccount).SpecTouch", "(*PageTable).SpecTouch"},
	"internal/core": {
		"(*Driver).specTouch", "(*FTD).SpecTouch",
		"(*ShadowStore).specTouch", "(*RxAckTable).specTouch",
	},
	"internal/gossip": {"(*Agent).specTouch"},
	"gm":              {"(*Port).specTouch", "(*Node).specTouch", "(*Port).markCkpt"},
}

// engineTouchCall matches a source line that calls Engine.SpecTouch
// directly: every such call passes the component's epoch field by address.
var engineTouchCall = regexp.MustCompile(`\bSpecTouch\(&`)

// TestJournalingGatesInline builds the simulator's packages with the
// compiler's inlining report (-gcflags=-m) and checks the rule spec.go
// states: every journaling gate and every listed wrapper is reported "can
// inline", and every direct Engine.SpecTouch call site in non-test code
// (Switch, PCIBus, link sides, Deferred.call/drain, ...) is reported
// inlined. Losing the inlining is a host-time regression that moves no
// simulated number, so nothing else would catch it (DESIGN.md §16 gives the
// measured cost).
func TestJournalingGatesInline(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		goTool = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	cmd := exec.Command(goTool, "build", "-gcflags=-m", "repro/internal/...", "repro/gm")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}

	canInline := map[string]bool{}    // "dir name"
	inlinedTouch := map[string]bool{} // "file:line"
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := strings.TrimPrefix(sc.Text(), "./")
		pos, msg, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		file, _, _ := strings.Cut(pos, ":")
		fileLine := pos[:strings.LastIndex(pos, ":")]
		switch {
		case strings.HasPrefix(msg, "can inline "):
			canInline[filepath.Dir(file)+" "+strings.TrimPrefix(msg, "can inline ")] = true
		case msg == "inlining call to sim.(*Engine).SpecTouch" || msg == "inlining call to (*Engine).SpecTouch":
			inlinedTouch[fileLine] = true
		}
	}
	if len(canInline) == 0 {
		t.Fatalf("no inlining report parsed from go build -gcflags=-m:\n%s", out)
	}

	for dir, names := range inlineRequired {
		for _, name := range names {
			if !canInline[dir+" "+name] {
				t.Errorf("%s: %s is not inlinable; journaling gates and their wrappers must inline (spec.go)", dir, name)
			}
		}
	}

	sites := 0
	for _, dir := range []string{"internal", "gm"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			for i, text := range strings.Split(string(src), "\n") {
				if !engineTouchCall.MatchString(text) || strings.HasPrefix(strings.TrimSpace(text), "//") {
					continue
				}
				sites++
				at := rel + ":" + strconv.Itoa(i+1)
				if !inlinedTouch[at] {
					t.Errorf("%s: Engine.SpecTouch call not inlined", at)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if sites == 0 {
		t.Fatal("found no Engine.SpecTouch call sites to check")
	}
}
