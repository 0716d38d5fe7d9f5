package cpu_test

import (
	"testing"

	"twolevel/internal/asm"
	"twolevel/internal/cpu"
	"twolevel/internal/prog"
	"twolevel/internal/trace"
)

// goldenConds is the conditional-branch budget of the golden captures.
const goldenConds = 100_000

// golden pins what the interpreter produced for every (benchmark, data
// set) pair at goldenConds conditional branches: the captured event
// count, the instructions retired when the last of those branches
// executed, the packed capture's checksum and the number of program
// restarts on the way (every pair restarts at least once, so Reset is
// covered). The figures were recorded from the per-instruction
// interpreter that predates the predecoded core, so the core is checked
// against an independent run and not against itself.
var golden = map[string]struct {
	events  int
	instret uint64
	sum     uint64
	runs    uint32
}{
	"eqntott/NA (reduced PLA)":     {118483, 512360, 0xcc18bd2232f5c199, 8},
	"eqntott/int_pri_3.eqn":        {119066, 512004, 0xf526ff695e0cc23e, 4},
	"espresso/cps":                 {100684, 411479, 0xcfcb7d5026a92dbb, 27},
	"espresso/bca":                 {100575, 402520, 0x640f843fe90b13a3, 21},
	"gcc/cexp.i":                   {174151, 1659294, 0x2953376d6a9cc337, 39},
	"gcc/dbxout.i":                 {177831, 1733484, 0x197bce53f2cadfc5, 31},
	"li/tower of hanoi":            {228398, 1603075, 0x4f7143d99bcfecad, 22},
	"li/eight queens":              {170186, 936136, 0x3f2b4970d0a6a2f8, 3},
	"doduc/tiny doducin":           {110161, 1004929, 0x52dbfe69331ce778, 67},
	"doduc/doducin":                {111681, 1069077, 0x9d401d368765597b, 56},
	"fpppp/NA (natoms reduced)":    {100693, 1936936, 0x2bdb76e6830d3634, 42},
	"fpppp/natoms":                 {100374, 1949421, 0x33fb22ba8774da80, 19},
	"matrix300/built-in (reduced)": {100392, 811986, 0x8bfe84e29d195a0c, 2},
	"matrix300/built-in":           {100245, 819179, 0x9b091cbba908038f, 1},
	"spice2g6/short greycode.in":   {116242, 1171102, 0x61f0d35308e393ab, 31},
	"spice2g6/greycode.in":         {117378, 1187665, 0x52a85a44cf95f7b1, 22},
	"tomcatv/built-in (reduced)":   {125700, 799636, 0xd378d0deb0fe4b09, 3},
	"tomcatv/built-in":             {128225, 817363, 0x7504140d42b7a803, 1},
}

// capturePair drives a looping source over b/ds until conds conditional
// branches are captured and returns the packed capture, the CPU and its
// source.
func capturePair(t *testing.T, b *prog.Benchmark, ds prog.DataSet, conds int) (trace.Snapshot, *cpu.CPU, *cpu.Source) {
	t.Helper()
	p, err := b.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cpu.New(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := cpu.NewSource(c, true)
	var pk trace.Packed
	for pk.Conds() < conds {
		ev, err := src.Next()
		if err != nil {
			t.Fatalf("%s/%s: %v", b.Name, ds.Name, err)
		}
		pk.Append(ev)
	}
	return pk.View(pk.Len()), c, src
}

func TestGoldenCaptures(t *testing.T) {
	if testing.Short() {
		t.Skip("captures 18 programs")
	}
	for _, b := range prog.All {
		for _, ds := range []prog.DataSet{b.Training, b.Testing} {
			key := b.Name + "/" + ds.Name
			want, ok := golden[key]
			if !ok {
				t.Errorf("%s: no golden entry", key)
				continue
			}
			snap, c, src := capturePair(t, b, ds, goldenConds)
			if snap.Len() != want.events || c.Instret() != want.instret || snap.Checksum() != want.sum || src.Runs() != want.runs {
				t.Errorf("%s: events %d instret %d checksum %#x runs %d; want %d %d %#x %d",
					key, snap.Len(), c.Instret(), snap.Checksum(), src.Runs(),
					want.events, want.instret, want.sum, want.runs)
			}
		}
	}
}

// BenchmarkCapture measures the interpreter alone: each iteration
// captures goldenConds conditional branches from all 18 (benchmark, data
// set) programs, assembled once outside the timer, and reports retired
// instructions and captured events per second.
func BenchmarkCapture(b *testing.B) {
	var progs []*asm.Program
	for _, bm := range prog.All {
		for _, ds := range []prog.DataSet{bm.Training, bm.Testing} {
			p, err := bm.Build(ds)
			if err != nil {
				b.Fatal(err)
			}
			progs = append(progs, p)
		}
	}
	var instrs, events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			c, err := cpu.New(p, 0)
			if err != nil {
				b.Fatal(err)
			}
			src := cpu.NewSource(c, true)
			for conds := 0; conds < goldenConds; {
				ev, err := src.Next()
				if err != nil {
					b.Fatal(err)
				}
				events++
				if !ev.Trap && ev.Branch.Class == trace.Cond {
					conds++
				}
			}
			instrs += c.Instret()
		}
	}
	s := b.Elapsed().Seconds()
	b.ReportMetric(float64(instrs)/s, "instr/s")
	b.ReportMetric(float64(events)/s, "events/s")
}
