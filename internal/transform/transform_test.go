package transform_test

import (
	"testing"

	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libmodel"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/minic"
	"github.com/firestarter-go/firestarter/internal/transform"
)

func apply(t *testing.T, src string) *transform.Result {
	t.Helper()
	prog, err := minic.Compile(src, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tr, err := transform.Apply(prog, libmodel.Default())
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	return tr
}

const gateSrc = `
int main() {
	char *p = malloc(64);
	if (!p) { return 1; }
	p[0] = 'x';
	free(p);
	return 0;
}`

func TestInputProgramUntouched(t *testing.T) {
	prog, err := minic.Compile(gateSrc, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatal(err)
	}
	before := prog.InstrCount()
	if _, err := transform.Apply(prog, nil); err != nil {
		t.Fatal(err)
	}
	if prog.InstrCount() != before {
		t.Fatal("transform mutated the input program")
	}
	for _, f := range prog.Funcs {
		if f.Cloned {
			t.Fatal("input function marked cloned")
		}
	}
}

func TestGateStructure(t *testing.T) {
	tr := apply(t, gateSrc)
	f := tr.Prog.Funcs["main"]
	if !f.Cloned {
		t.Fatal("main not cloned")
	}
	var gates, txBegins, txEnds, regSaves int
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			switch b.Instrs[i].Op {
			case ir.OpGate:
				gates++
				if b.Instrs[i].Site == 0 {
					t.Error("gate without site ID")
				}
				then := f.Blocks[b.Instrs[i].Then]
				els := f.Blocks[b.Instrs[i].Else]
				if then.Variant != ir.TxHTM || els.Variant != ir.TxSTM {
					t.Errorf("gate targets variants %d/%d, want HTM/STM", then.Variant, els.Variant)
				}
			case ir.OpTxBegin:
				txBegins++
			case ir.OpTxEnd:
				txEnds++
			case ir.OpRegSave:
				regSaves++
			}
		}
	}
	// malloc is a gate; free is embedded (void). One gate per variant
	// copy of the block containing it.
	if gates != 2 {
		t.Errorf("gates = %d, want 2 (one per variant)", gates)
	}
	if txBegins != 2 || regSaves != 2 {
		t.Errorf("txbegins/regsaves = %d/%d, want 2/2", txBegins, regSaves)
	}
	if txEnds != 2 {
		t.Errorf("txends = %d, want 2", txEnds)
	}
	if sites, _, _ := tr.Analysis.Counts(); sites != 1 {
		t.Errorf("gate sites = %d, want 1", sites)
	}
}

func TestClonesAreInstructionParallel(t *testing.T) {
	tr := apply(t, `
int helper(int x) {
	char buf[64];
	memset(buf, x, 64);
	return buf[0];
}
int main() {
	int fd = open("/f", 0);
	if (fd < 0) { return 1; }
	int v = helper(fd);
	close(fd);
	return v;
}`)
	for _, name := range tr.Prog.FuncNames() {
		f := tr.Prog.Funcs[name]
		n := len(f.Blocks) / 2
		if len(f.Blocks) != 2*n {
			t.Fatalf("%s: odd block count %d", name, len(f.Blocks))
		}
		for i := 0; i < n; i++ {
			h, s := f.Blocks[i], f.Blocks[i+n]
			if h.Counterpart != s.ID || s.Counterpart != h.ID {
				t.Errorf("%s.b%d: counterpart links broken", name, i)
			}
			if len(h.Instrs) != len(s.Instrs) {
				t.Errorf("%s.b%d: clone instruction counts differ (%d vs %d)",
					name, i, len(h.Instrs), len(s.Instrs))
				continue
			}
			for j := range h.Instrs {
				hi, si := h.Instrs[j], s.Instrs[j]
				switch hi.Op {
				case ir.OpStore:
					if si.Op != ir.OpStmStore {
						t.Errorf("%s.b%d.%d: store not undo-instrumented in STM clone", name, i, j)
					}
				case ir.OpTxBegin:
					if si.Imm != ir.TxSTM {
						t.Errorf("%s.b%d.%d: STM clone txbegin variant %d", name, i, j, si.Imm)
					}
				case ir.OpJmp:
					if si.Then != hi.Then+n {
						t.Errorf("%s.b%d.%d: STM jmp not retargeted", name, i, j)
					}
				case ir.OpBr:
					if si.Then != hi.Then+n || si.Else != hi.Else+n {
						t.Errorf("%s.b%d.%d: STM br not retargeted", name, i, j)
					}
				case ir.OpGate:
					if si.Then != hi.Then || si.Else != hi.Else {
						t.Errorf("%s.b%d.%d: gate targets differ between clones", name, i, j)
					}
				default:
					if si.Op != hi.Op {
						t.Errorf("%s.b%d.%d: opcode mismatch %d vs %d", name, i, j, hi.Op, si.Op)
					}
				}
			}
		}
	}
}

func TestBreakCallGetsTxEndOnly(t *testing.T) {
	tr := apply(t, `
int main() {
	char buf[4];
	int rc = write(1, buf, 4);
	if (rc < 0) { return 1; }
	return 0;
}`)
	f := tr.Prog.Funcs["main"]
	gates := 0
	var txEndBeforeWrite bool
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpGate {
				gates++
			}
			if in.Op == ir.OpLib && in.Name == "write" && i > 0 && b.Instrs[i-1].Op == ir.OpTxEnd {
				txEndBeforeWrite = true
			}
		}
	}
	if gates != 0 {
		t.Errorf("write (irrecoverable) received a gate")
	}
	if !txEndBeforeWrite {
		t.Error("no txend before irrecoverable write")
	}
}

func TestCodeSizeRoughlyDoubles(t *testing.T) {
	prog, err := minic.Compile(gateSrc, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatal(err)
	}
	before := prog.InstrCount()
	tr, err := transform.Apply(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := tr.Prog.InstrCount()
	if after < 2*before {
		t.Errorf("instrumented size %d < 2× original %d; cloning missing?", after, before)
	}
	if after > 3*before {
		t.Errorf("instrumented size %d > 3× original %d; unexpected bloat", after, before)
	}
}

func TestInstrumentedProgramValidates(t *testing.T) {
	tr := apply(t, `
struct req { int fd; char *buf; int len; };
int handle(struct req *r) {
	char tmp[128];
	int n = read(r->fd, tmp, 128);
	if (n <= 0) { return -1; }
	r->len = n;
	return n;
}
int main() {
	int s = socket();
	if (s < 0) { return 1; }
	if (bind(s, 80) == -1) { return 2; }
	if (listen(s, 8) == -1) { return 3; }
	struct req *r = malloc(sizeof(struct req));
	if (!r) { return 4; }
	r->fd = accept(s);
	if (r->fd >= 0) { handle(r); close(r->fd); }
	free(r);
	return 0;
}`)
	if err := tr.Prog.Validate(); err != nil {
		t.Fatalf("instrumented program invalid: %v", err)
	}
	// socket, bind, listen, malloc, read are checked through registers;
	// accept's result is stored into struct memory before the check (the
	// register tracer conservatively treats that as unchecked), and
	// close/free are unchecked → embedded.
	gates, embeds, breaks := tr.Analysis.Counts()
	if gates != 5 {
		t.Errorf("gates = %d, want 5 (socket/bind/listen/malloc/read)", gates)
	}
	if embeds != 3 {
		t.Errorf("embeds = %d, want 3 (accept/close/free)", embeds)
	}
	if breaks != 0 {
		t.Errorf("breaks = %d, want 0", breaks)
	}
}
