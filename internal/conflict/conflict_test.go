package conflict

import (
	"sync"
	"testing"

	"soarpsme/internal/ops5"
	"soarpsme/internal/rete"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// mkProd builds a minimal compiled production for CS tests.
func mkProd(t *testing.T, tab *value.Table, src string) *rete.Production {
	t.Helper()
	ast, err := ops5.ParseProduction(src, tab)
	if err != nil {
		t.Fatal(err)
	}
	return &rete.Production{Name: ast.Name, AST: ast}
}

func tok(ws ...*wme.WME) *rete.Token {
	t := rete.DummyTop
	for i, w := range ws {
		t = rete.Extend(t, i, w)
	}
	return t
}

func w(id uint64) *wme.WME {
	return &wme.WME{ID: id, TimeTag: id, Class: 1}
}

func TestInsertRetract(t *testing.T) {
	tab := value.NewTable()
	p := mkProd(t, tab, `(p p1 (c ^v 1) --> (halt))`)
	s := New()
	w1 := w(1)
	tk := tok(w1)
	s.Insert(p, tk)
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if all := s.All(); len(all) != 1 || all[0].WMEs[0] != w1 {
		t.Fatalf("All wrong")
	}
	s.Retract(p, tok(w1))
	if s.Len() != 0 {
		t.Fatalf("Len after retract = %d", s.Len())
	}
}

func TestSelectRefraction(t *testing.T) {
	tab := value.NewTable()
	p := mkProd(t, tab, `(p p1 (c ^v 1) --> (halt))`)
	s := New()
	s.Insert(p, tok(w(1)))
	first := s.Select(LEX)
	if first == nil {
		t.Fatalf("Select returned nil")
	}
	if s.Select(LEX) != nil {
		t.Fatalf("refraction failed: instantiation selected twice")
	}
	// Retract + re-insert clears refraction.
	s.Retract(p, tok(w(1)))
	s.Insert(p, tok(w(1)))
	if s.Select(LEX) == nil {
		t.Fatalf("re-derived instantiation should be selectable")
	}
}

func TestLEXRecency(t *testing.T) {
	tab := value.NewTable()
	p := mkProd(t, tab, `(p p1 (c ^v <v>) (d ^v <v>) --> (halt))`)
	s := New()
	// inst A: tags {5, 1}; inst B: tags {4, 3} -> A wins (5 > 4).
	s.Insert(p, tok(w(1), w(5)))
	s.Insert(p, tok(w(3), w(4)))
	got := s.Select(LEX)
	if got.WMEs[1].ID != 5 {
		t.Fatalf("LEX picked %v", got.WMEs)
	}
	// Next: B.
	if got := s.Select(LEX); got.WMEs[1].ID != 4 {
		t.Fatalf("second LEX pick wrong: %v", got.WMEs)
	}
}

func TestLEXSecondTagBreaksTie(t *testing.T) {
	tab := value.NewTable()
	p := mkProd(t, tab, `(p p1 (c ^v <v>) (d ^v <v>) --> (halt))`)
	s := New()
	shared := w(9)
	s.Insert(p, tok(w(2), shared))
	s.Insert(p, tok(w(7), shared))
	if got := s.Select(LEX); got.WMEs[0].ID != 7 {
		t.Fatalf("LEX second-tag tie-break wrong: %v", got.WMEs)
	}
}

func TestLEXLongerDominatesOnEqualPrefix(t *testing.T) {
	tab := value.NewTable()
	pa := mkProd(t, tab, `(p pa (c ^v <v>) --> (halt))`)
	pb := mkProd(t, tab, `(p pb (c ^v <v>) (d ^v <v>) --> (halt))`)
	s := New()
	shared := w(9)
	s.Insert(pa, tok(shared))
	s.Insert(pb, tok(shared, w(3)))
	if got := s.Select(LEX); got.Prod != pb {
		t.Fatalf("longer instantiation should dominate, got %s", got.Prod.Name)
	}
}

func TestMEAFirstCE(t *testing.T) {
	tab := value.NewTable()
	p := mkProd(t, tab, `(p p1 (g ^v <v>) (d ^v <v>) --> (halt))`)
	s := New()
	// A: first CE tag 2, other 9. B: first CE tag 5, other 1.
	s.Insert(p, tok(w(2), w(9)))
	s.Insert(p, tok(w(5), w(1)))
	if got := s.Select(MEA); got.WMEs[0].ID != 5 {
		t.Fatalf("MEA picked %v", got.WMEs)
	}
	// Under LEX, A would win (9 > 5).
	s2 := New()
	s2.Insert(p, tok(w(2), w(9)))
	s2.Insert(p, tok(w(5), w(1)))
	if got := s2.Select(LEX); got.WMEs[1].ID != 9 {
		t.Fatalf("LEX picked %v", got.WMEs)
	}
}

func TestSpecificity(t *testing.T) {
	tab := value.NewTable()
	pGen := mkProd(t, tab, `(p gen (obj ^kind box) --> (halt))`)
	pSpec := mkProd(t, tab, `(p spec (obj ^kind box ^size 3) --> (halt))`)
	if Specificity(pGen.AST) >= Specificity(pSpec.AST) {
		t.Fatalf("specificity ordering wrong")
	}
	nccP := mkProd(t, tab, `(p n (a ^x 1) -{ (b ^y 1) (c ^z 1) } --> (halt))`)
	if Specificity(nccP.AST) != 6 {
		t.Fatalf("NCC specificity = %d, want 6", Specificity(nccP.AST))
	}
}

func TestDrain(t *testing.T) {
	tab := value.NewTable()
	p := mkProd(t, tab, `(p p1 (c ^v 1) --> (halt))`)
	s := New()
	s.Insert(p, tok(w(1)))
	s.Insert(p, tok(w(2)))
	// w(1)'s instantiation is retracted within the same window: the pair
	// annihilates (a transient of parallel match must never fire).
	s.Retract(p, tok(w(1)))
	added, retracted := s.Drain()
	if len(added) != 1 || len(retracted) != 0 {
		t.Fatalf("Drain = %d added, %d retracted, want 1, 0", len(added), len(retracted))
	}
	if added[0].WMEs[0].ID != 2 {
		t.Fatalf("wrong instantiation survived")
	}
	added, retracted = s.Drain()
	if len(added) != 0 || len(retracted) != 0 {
		t.Fatalf("second Drain not empty")
	}
	// A retraction of an instantiation added before the window reports
	// normally.
	s.Insert(p, tok(w(3)))
	s.Drain()
	s.Retract(p, tok(w(3)))
	added, retracted = s.Drain()
	if len(added) != 0 || len(retracted) != 1 {
		t.Fatalf("cross-window Drain = %d added, %d retracted", len(added), len(retracted))
	}
}

func TestParseStrategy(t *testing.T) {
	if ParseStrategy("mea") != MEA || ParseStrategy("lex") != LEX || ParseStrategy("") != LEX {
		t.Fatalf("ParseStrategy wrong")
	}
}

func TestConcurrentInsertRetract(t *testing.T) {
	tab := value.NewTable()
	p := mkProd(t, tab, `(p p1 (c ^v 1) --> (halt))`)
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < 100; i++ {
				tk := tok(w(base*1000 + i))
				s.Insert(p, tk)
				if i%2 == 0 {
					s.Retract(p, tok(w(base*1000+i)))
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	if s.Len() != 8*50 {
		t.Fatalf("Len = %d, want %d", s.Len(), 8*50)
	}
}

func TestRetractAbsentIsNoop(t *testing.T) {
	tab := value.NewTable()
	p := mkProd(t, tab, `(p p1 (c ^v 1) --> (halt))`)
	s := New()
	s.Retract(p, tok(w(1)))
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// recoveryEnv: two productions and four wmes for rollback tests.
func recoveryEnv(t *testing.T) (*Set, *rete.Production, []*wme.WME) {
	tab := value.NewTable()
	p := mkProd(t, tab, `(p pr (c ^v 1) --> (halt))`)
	return New(), p, []*wme.WME{nil, w(1), w(2), w(3), w(4)}
}

// TestRecoveryUndoesPoisonedCycle: a cycle that inserted and retracted is
// rolled back; the replay re-derives the pre-cycle matches plus one new
// one, and Drain reports exactly the cycle's true effect.
func TestRecoveryUndoesPoisonedCycle(t *testing.T) {
	s, p, ws := recoveryEnv(t)
	a, b := tok(ws[1]), tok(ws[2])
	s.Insert(p, a)
	s.Insert(p, b)
	s.Drain() // close the pre-cycle window
	mark := s.Mark()

	// Poisoned cycle: retracts a, inserts c — all to be undone.
	s.Insert(p, tok(ws[3]))
	s.Retract(p, tok(ws[1]))
	rec := s.BeginRecovery(mark)
	if s.Len() != 0 {
		t.Fatalf("Len during recovery = %d, want 0", s.Len())
	}

	// Serial replay re-derives a and b (still matching) plus new d.
	s.Insert(p, tok(ws[1]))
	s.Insert(p, tok(ws[2]))
	s.Insert(p, tok(ws[4]))
	s.EndRecovery(rec)

	if s.Len() != 3 {
		t.Fatalf("Len after recovery = %d, want 3", s.Len())
	}
	added, retracted := s.Drain()
	if len(added) != 1 || !added[0].Tok.Equal(tok(ws[4])) {
		t.Fatalf("Drain added = %v, want just the d match", added)
	}
	if len(retracted) != 0 {
		t.Fatalf("Drain retracted = %v, want none", retracted)
	}
}

// TestRecoveryReportsTrueRetraction: a pre-cycle match the replay does not
// re-derive is reported retracted exactly once.
func TestRecoveryReportsTrueRetraction(t *testing.T) {
	s, p, ws := recoveryEnv(t)
	s.Insert(p, tok(ws[1]))
	s.Insert(p, tok(ws[2]))
	s.Drain()
	mark := s.Mark()

	s.Insert(p, tok(ws[3])) // poisoned-cycle insert, undone
	rec := s.BeginRecovery(mark)
	s.Insert(p, tok(ws[2])) // only b survives the cycle's wme changes
	s.Insert(p, tok(ws[3])) // c genuinely derived by the cycle
	s.EndRecovery(rec)

	added, retracted := s.Drain()
	if len(added) != 1 || !added[0].Tok.Equal(tok(ws[3])) {
		t.Fatalf("Drain added = %v, want the c match", added)
	}
	if len(retracted) != 1 || !retracted[0].Tok.Equal(tok(ws[1])) {
		t.Fatalf("Drain retracted = %v, want the a match", retracted)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

// TestRecoveryPreservesPointerIdentity: a re-derived pre-cycle match keeps
// its original *Instantiation, so holders of the old pointer stay coherent.
func TestRecoveryPreservesPointerIdentity(t *testing.T) {
	s, p, ws := recoveryEnv(t)
	s.Insert(p, tok(ws[1]))
	orig := s.All()[0]
	s.Drain()
	mark := s.Mark()
	rec := s.BeginRecovery(mark)
	s.Insert(p, tok(ws[1]))
	s.EndRecovery(rec)
	if all := s.All(); len(all) != 1 || all[0] != orig {
		t.Fatalf("recovery replaced the original instantiation object")
	}
}

// TestRecoveryAnnihilatesWindowTransient: a match added earlier in the same
// Drain window and genuinely retracted by the recovered cycle must vanish
// from Drain entirely (the add/retract pair annihilates by identity).
func TestRecoveryAnnihilatesWindowTransient(t *testing.T) {
	s, p, ws := recoveryEnv(t)
	s.Insert(p, tok(ws[1])) // same window, before the cycle
	mark := s.Mark()
	s.Insert(p, tok(ws[2])) // poisoned work
	rec := s.BeginRecovery(mark)
	// Replay derives nothing: the cycle's wme changes killed both.
	s.EndRecovery(rec)
	added, retracted := s.Drain()
	if len(added) != 0 || len(retracted) != 0 {
		t.Fatalf("Drain = %v / %v, want empty (transient annihilation)", added, retracted)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
}

// TestRecoveryRefraction: a re-derived fired match stays refracted — also
// when the poisoned cycle had retracted it before failing; a match the replay
// does not re-derive is gone, so a later re-derivation may fire again (OPS5
// semantics).
func TestRecoveryRefraction(t *testing.T) {
	s, p, ws := recoveryEnv(t)
	s.Insert(p, tok(ws[1]))
	if s.Select(LEX) == nil {
		t.Fatalf("nothing to fire")
	}
	mark := s.Mark()
	rec := s.BeginRecovery(mark)
	s.Insert(p, tok(ws[1])) // re-derived
	s.EndRecovery(rec)
	if got := s.Select(LEX); got != nil {
		t.Fatalf("re-derived fired match selected again: %v", got)
	}

	// Second round: the poisoned cycle retracts the fired match before it
	// fails, and the replay re-derives it. Recovery brings back the object
	// that was retracted, refraction and all; a refraction memory kept beside
	// the set had already dropped its entry and let the match fire twice.
	mark = s.Mark()
	s.Retract(p, tok(ws[1]))
	rec = s.BeginRecovery(mark)
	s.Insert(p, tok(ws[1]))
	s.EndRecovery(rec)
	if got := s.Select(LEX); got != nil {
		t.Fatalf("fired match retracted by the poisoned cycle and re-derived by the replay selected again: %v", got)
	}

	// Third round: this time the replay does NOT re-derive it.
	mark = s.Mark()
	rec = s.BeginRecovery(mark)
	s.EndRecovery(rec)
	s.Insert(p, tok(ws[1])) // later genuine re-derivation
	if s.Select(LEX) == nil {
		t.Fatalf("refraction not cleared for retracted match")
	}
}
