package analysis_test

import (
	"testing"

	"github.com/firestarter-go/firestarter/internal/analysis"
	"github.com/firestarter-go/firestarter/internal/libmodel"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/minic"
)

func analyze(t *testing.T, src string) *analysis.Result {
	t.Helper()
	prog, err := minic.Compile(src, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return analysis.Classify(prog, libmodel.Default())
}

// siteFor returns the first site calling the named function.
func siteFor(t *testing.T, res *analysis.Result, name string) *analysis.Site {
	t.Helper()
	for _, s := range res.Sites {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no site for %q", name)
	return nil
}

func TestCheckedDirectComparison(t *testing.T) {
	res := analyze(t, `
int main() {
	int rc = socket();
	if (rc == -1) { return 1; }
	return 0;
}`)
	s := siteFor(t, res, "socket")
	if !s.Checked || s.Role != analysis.RoleGate {
		t.Fatalf("socket site = %+v, want checked gate", s)
	}
}

func TestCheckedAssignInCondition(t *testing.T) {
	res := analyze(t, `
int main() {
	int rc;
	if ((rc = socket()) == -1) { return 1; }
	return 0;
}`)
	if s := siteFor(t, res, "socket"); !s.Checked {
		t.Fatalf("assign-in-condition not detected: %+v", s)
	}
}

func TestCheckedNullPointerTest(t *testing.T) {
	res := analyze(t, `
int main() {
	char *p = malloc(64);
	if (!p) { return 1; }
	free(p);
	return 0;
}`)
	if s := siteFor(t, res, "malloc"); !s.Checked || s.Role != analysis.RoleGate {
		t.Fatalf("malloc null check not detected: %+v", s)
	}
}

func TestCheckedLessThanZero(t *testing.T) {
	res := analyze(t, `
int main() {
	int fd = socket();
	if (fd < 0) { return 1; }
	return 0;
}`)
	if s := siteFor(t, res, "socket"); !s.Checked {
		t.Fatalf("fd < 0 check not detected: %+v", s)
	}
}

func TestUncheckedReturn(t *testing.T) {
	res := analyze(t, `
int main() {
	int fd = socket();
	setsockopt(fd, 2, 1);
	return 0;
}`)
	s := siteFor(t, res, "setsockopt")
	if s.Checked {
		t.Fatalf("ignored setsockopt reported checked: %+v", s)
	}
	if s.Role != analysis.RoleEmbed {
		t.Fatalf("unchecked recoverable call role = %v, want embed", s.Role)
	}
}

func TestOverwrittenReturnKillsCheck(t *testing.T) {
	res := analyze(t, `
int main() {
	int rc = socket();
	rc = 5;
	if (rc == -1) { return 1; }
	return 0;
}`)
	if s := siteFor(t, res, "socket"); s.Checked {
		t.Fatalf("overwritten return value still reported checked: %+v", s)
	}
}

func TestIrrecoverableIsBreakEvenWhenChecked(t *testing.T) {
	res := analyze(t, `
int main() {
	char buf[4];
	int rc = write(1, buf, 4);
	if (rc == -1) { return 1; }
	return 0;
}`)
	s := siteFor(t, res, "write")
	if !s.Checked {
		t.Fatalf("write check not detected")
	}
	if s.Role != analysis.RoleBreak {
		t.Fatalf("checked write role = %v, want break", s.Role)
	}
}

func TestVoidReturnIsEmbed(t *testing.T) {
	res := analyze(t, `
int main() {
	char buf[8];
	memset(buf, 0, 8);
	int n = strlen(buf);
	return n;
}`)
	if s := siteFor(t, res, "memset"); s.Role != analysis.RoleEmbed {
		t.Fatalf("memset role = %v, want embed", s.Role)
	}
	// strlen's return is returned, not branched on: not a check.
	if s := siteFor(t, res, "strlen"); s.Role != analysis.RoleEmbed {
		t.Fatalf("strlen role = %v, want embed", s.Role)
	}
}

func TestUnknownCallIsBreak(t *testing.T) {
	res := analyze(t, `
int main() {
	int rc = htons(80);
	if (rc == -1) { return 1; }
	return 0;
}`)
	// htons is modelled but not divertable → embed despite the check.
	if s := siteFor(t, res, "htons"); s.Role != analysis.RoleEmbed {
		t.Fatalf("htons role = %v, want embed", s.Role)
	}
}

func TestSiteIDsAreUniqueAndAssigned(t *testing.T) {
	src := `
int main() {
	int a = socket();
	if (a == -1) { return 1; }
	int b = socket();
	if (b == -1) { return 2; }
	char *p = malloc(8);
	if (!p) { return 3; }
	free(p);
	return 0;
}`
	prog, err := minic.Compile(src, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatal(err)
	}
	res := analysis.Classify(prog, libmodel.Default())
	if len(res.Sites) != 4 {
		t.Fatalf("found %d sites, want 4", len(res.Sites))
	}
	seen := map[int]bool{}
	for _, s := range res.Sites {
		if s.ID <= 0 || seen[s.ID] {
			t.Fatalf("bad/duplicate site ID %d", s.ID)
		}
		seen[s.ID] = true
	}
	if len(res.ByID) != 5 {
		t.Fatalf("len(ByID) = %d, want 5", len(res.ByID))
	}
	gates, embeds, breaks := res.Counts()
	if gates != 3 || embeds != 1 || breaks != 0 {
		t.Fatalf("counts = %d/%d/%d, want 3 gates, 1 embed, 0 breaks", gates, embeds, breaks)
	}
}

func TestCheckAcrossJump(t *testing.T) {
	// A call whose result is branched on as a loop condition: the branch
	// sits one unconditional jump away.
	res := analyze(t, `
int main() {
	char buf[8];
	int total = 0;
	int n = read(0, buf, 8);
	while (n > 0) {
		total += n;
		n = 0;
	}
	return total;
}`)
	if s := siteFor(t, res, "read"); !s.Checked {
		t.Fatalf("loop-condition check not detected: %+v", s)
	}
}

func TestPaperListing1Pattern(t *testing.T) {
	// The running example from the paper (Listing 1): setsockopt and
	// bind, both checked, both gates.
	res := analyze(t, `
int ngx_close_socket(int s) { return close(s); }
int main() {
	int s = socket();
	int reuseaddr = 1;
	int ret_s = setsockopt(s, 2, reuseaddr);
	if (ret_s == -1) {
		printf("setsockopt() failed");
		if (ngx_close_socket(s) == -1) {
			printf("ngx_close_socket failed");
		}
		return -1;
	}
	int ret_b = bind(s, 8080);
	if (ret_b == -1) {
		int err = errno();
		printf("bind() failed");
		if (ngx_close_socket(s) == -1) {
			printf("ngx_close_socket_n failed");
		}
		if (err != 98) {
			return -1;
		}
	}
	return 0;
}`)
	for _, name := range []string{"setsockopt", "bind", "close"} {
		s := siteFor(t, res, name)
		if s.Role != analysis.RoleGate {
			t.Errorf("%s role = %v (checked=%v), want gate", name, s.Role, s.Checked)
		}
	}
	// printf results are ignored → embedded.
	if s := siteFor(t, res, "printf"); s.Role != analysis.RoleEmbed {
		t.Errorf("printf role = %v, want embed", s.Role)
	}
}
