package experiments

import (
	"fmt"
	"strings"
	"testing"

	crossprefetch "repro"
	"repro/internal/filebench"
	"repro/internal/lsm"
	"repro/internal/snappy"
	"repro/internal/workload"
	"repro/internal/ycsb"
)

// TestDriverPins holds the six workload drivers to the byte. Every pattern,
// profile, YCSB letter and db_bench workload runs once per approach on one
// thread (8 MB cache, plugged), and each driver runs again at four threads
// under OSonly and CrossP[+predict+opt] — with Figure 6's writers beside its
// readers and filebench as two instances besides. Each run is reduced to one
// line — makespan, the driver's own op and byte counts, miss rate and the
// group's summed accounting — compared with driverPins below. A run is a
// function of its seed because a group runs one member at a time
// (simtime.Group). The single-thread lines were recorded before the drivers
// moved onto workload.Drive (the four YCSB-E ones again when its scan length
// became one draw per scan), the multi-thread ones when the group's gate
// became a baton (those of mmap, Figure 6, filebench and db_bench again when
// the seed derivations became one); a line that moves means a Gate, a PRNG
// draw or a counter did. It runs beside the parallel paper-table tests, so a
// line those disturbed would move too. To re-record on purpose, run with -v:
// every line is logged. Re-recorded on purpose since: drop-behind
// (DESIGN.md §24) takes CrossP[+predict+opt]'s micro private-seq and
// shared-seq at one thread — one descriptor streaming a 16 MB file through
// the 8 MB cache — from 13 751 046 to 12 234 146 ns. And the twenty
// filebench lines, when every profile came to close the files it opens and
// creates: each close is one more crossing (900 ns), and mongodb closes a
// file per op, so its makespans move most (13 385 276 → 13 504 076 ns at
// one thread under OSonly); op, byte and miss counts hold.
func TestDriverPins(t *testing.T) {
	t.Parallel()
	want := strings.Split(strings.TrimSpace(driverPins), "\n")
	var got []string
	sys := func(a crossprefetch.Approach) *crossprefetch.System {
		return crossprefetch.NewSystem(crossprefetch.Config{Approach: a, MemoryBytes: 8 << 20})
	}
	pin := func(a crossprefetch.Approach, name string, o workload.Outcome, counts string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s %s: %v", a, name, err)
		}
		g := o.Group
		got = append(got, fmt.Sprintf("%s %s: makespan=%d %s miss=%v total=%d/%d/%d/%d", a, name,
			int64(o.Makespan), counts, o.MissPct, int64(g.Total.Elapsed), int64(g.Total.CPU),
			int64(g.Total.IOWait), int64(g.Total.LockWait)))
	}
	micro := func(a crossprefetch.Approach, name string, cfg workload.MicroConfig) {
		cfg.Sys, cfg.IOSize, cfg.TotalBytes, cfg.Seed = sys(a), 16<<10, 16<<20, 1
		r, err := workload.RunMicro(cfg)
		pin(a, name, r.Outcome, fmt.Sprintf("read=%d write=%d", r.ReadBytes, r.WriteBytes), err)
	}
	mmap := func(a crossprefetch.Approach, name string, threads int, seq bool) {
		r, err := workload.RunMmap(workload.MmapConfig{
			Sys: sys(a), Threads: threads, TotalBytes: 16 << 20, Sequential: seq, Seed: 1,
		})
		pin(a, name, r.Outcome, fmt.Sprintf("read=%d", r.ReadBytes), err)
	}
	fbench := func(a crossprefetch.Approach, name string, p filebench.Profile, instances, threads int) {
		r, err := filebench.Run(filebench.Config{
			Sys: sys(a), Profile: p, Instances: instances, ThreadsPerInstance: threads,
			BytesPerInstance: 16 << 20, OpsPerThread: 128, Seed: 1,
		})
		pin(a, name, r.Outcome, fmt.Sprintf("ops=%d bytes=%d", r.Ops, r.Bytes), err)
	}
	ycsbRun := func(a crossprefetch.Approach, name string, w ycsb.Workload, threads int) {
		r, err := ycsb.Run(w, ycsb.Config{
			Sys: sys(a), DB: dbOptions(), Records: 3000, ValueBytes: 4096,
			Threads: threads, OpsPerThread: 300, Seed: 1,
		})
		pin(a, name, r.Outcome, fmt.Sprintf("ops=%d r/w/s=%d/%d/%d", r.Ops, r.ReadOps, r.WriteOps, r.ScanOps), err)
	}
	dbbench := func(a crossprefetch.Approach, name string, w lsm.Workload, threads int) {
		r, err := lsm.RunBench(lsm.BenchConfig{
			Sys: sys(a), DB: dbOptions(), NumKeys: 3000, ValueBytes: 3072,
			Threads: threads, Workload: w, OpsPerThread: 400, Seed: 1,
		})
		pin(a, name, r.Outcome, fmt.Sprintf("ops=%d MB/s=%v", r.Ops, r.MBPerSec), err)
	}
	snappyApp := func(a crossprefetch.Approach, name string, threads int) {
		r, err := snappy.RunApp(snappy.AppConfig{Sys: sys(a), Files: 4, FileBytes: 2 << 20, Threads: threads})
		pin(a, name, r.Outcome, fmt.Sprintf("in=%d out=%d files=%d", r.InBytes, r.OutBytes, r.Compressed), err)
	}

	for _, a := range []crossprefetch.Approach{
		crossprefetch.AppOnly, crossprefetch.AppOnlyFincore,
		crossprefetch.OSOnly, crossprefetch.CrossPredictOpt,
	} {
		for _, m := range []struct {
			name        string
			shared, seq bool
		}{
			{"micro/private-seq", false, true}, {"micro/private-rand", false, false},
			{"micro/shared-seq", true, true}, {"micro/shared-rand", true, false},
		} {
			micro(a, m.name, workload.MicroConfig{Threads: 1, Shared: m.shared, Sequential: m.seq})
		}
		for _, seq := range []bool{true, false} {
			mmap(a, fmt.Sprintf("mmap/seq=%v", seq), 1, seq)
		}
		for _, p := range filebench.Profiles() {
			fbench(a, "filebench/"+string(p), p, 1, 1)
		}
		for _, w := range ycsb.All() {
			ycsbRun(a, "ycsb/"+w.String(), w, 1)
		}
		for _, w := range []lsm.Workload{
			lsm.FillSeq, lsm.FillRandom, lsm.ReadRandom, lsm.ReadSeq,
			lsm.ReadReverse, lsm.ReadScan, lsm.MultiReadRandom,
		} {
			dbbench(a, "dbbench/"+string(w), w, 1)
		}
		snappyApp(a, "snappy", 1)
	}
	for _, a := range []crossprefetch.Approach{crossprefetch.OSOnly, crossprefetch.CrossPredictOpt} {
		micro(a, "micro/shared-rand t=4", workload.MicroConfig{Threads: 4, Shared: true})
		micro(a, "micro/shared-rand t=4+4w", workload.MicroConfig{Threads: 4, Writers: 4, Shared: true})
		mmap(a, "mmap/seq=false t=4", 4, false)
		fbench(a, "filebench/randread t=4", filebench.RandRead, 1, 4)
		fbench(a, "filebench/mongodb i=2 t=2", filebench.MongoDB, 2, 2)
		ycsbRun(a, "ycsb/YCSB-A t=4", ycsb.WorkloadA, 4)
		ycsbRun(a, "ycsb/YCSB-D t=4", ycsb.WorkloadD, 4)
		dbbench(a, "dbbench/multireadrandom t=4", lsm.MultiReadRandom, 4)
		snappyApp(a, "snappy t=4", 4)
	}

	for i, line := range got {
		t.Log(line)
		if i < len(want) && line != want[i] {
			t.Errorf("pin %d moved:\n got %s\nwant %s", i, line, want[i])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d pinned runs, %d recorded", len(got), len(want))
	}
}

const driverPins = `
APPonly micro/private-seq: makespan=13644959 read=16777216 write=0 miss=1.3020833333333333 total=13644959/4944328/8584611/116020
APPonly micro/private-rand: makespan=67827454 read=16777216 write=0 miss=66.69921875 total=67827454/4199174/63628280/0
APPonly micro/shared-seq: makespan=13644959 read=16777216 write=0 miss=1.3020833333333333 total=13644959/4944328/8584611/116020
APPonly micro/shared-rand: makespan=67827454 read=16777216 write=0 miss=66.69921875 total=67827454/4199174/63628280/0
APPonly mmap/seq=true: makespan=358148748 read=16777216 miss=100 total=358148748/10848908/347299840/0
APPonly mmap/seq=false: makespan=238711164 read=16777216 miss=66.6015625 total=238711164/7404044/231307120/0
APPonly filebench/seqread: makespan=5228696 ops=128 bytes=16777216 miss=12.5 total=5228696/2488136/2740560/0
APPonly filebench/randread: makespan=9180818 ops=128 bytes=1048576 miss=78.90625 total=9180818/335238/8845580/0
APPonly filebench/mongodb: makespan=13504076 ops=128 bytes=2162688 miss=76.92307692307692 total=13504076/1144552/12359524/0
APPonly filebench/videoserver: makespan=131719971 ops=128 bytes=134217728 miss=0 total=131719971/30604760/101074211/41000
APPonly ycsb/YCSB-A: makespan=8432775 ops=300 r/w/s=160/140/0 miss=28.34413671184443 total=8432775/962624/7470151/0
APPonly ycsb/YCSB-B: makespan=13750022 ops=300 r/w/s=281/19/0 miss=29.075360769641904 total=13750022/1230790/12519232/0
APPonly ycsb/YCSB-C: makespan=16169073 ops=300 r/w/s=300/0/0 miss=29.17412426489389 total=16169073/1468102/14700971/0
APPonly ycsb/YCSB-D: makespan=11786277 ops=300 r/w/s=285/15/0 miss=28.309377138945926 total=11786277/1044364/10741913/0
APPonly ycsb/YCSB-E: makespan=107352744 ops=300 r/w/s=0/21/279 miss=10.663653862247887 total=107352744/23397344/83955400/0
APPonly ycsb/YCSB-F: makespan=16895986 ops=442 r/w/s=300/142/0 miss=31.543715846994534 total=16895986/1545684/15350302/0
APPonly dbbench/fillseq: makespan=1137384 ops=400 MB/s=1030.3248507100504 miss=0 total=1137384/1137384/0/0
APPonly dbbench/fillrandom: makespan=1137384 ops=400 MB/s=1030.3248507100504 miss=0 total=1137384/1137384/0/0
APPonly dbbench/readrandom: makespan=28213807 ops=400 MB/s=41.53551486334332 miss=36.09386828160484 total=28213807/2290480/25923327/0
APPonly dbbench/readseq: makespan=5318679 ops=400 MB/s=220.33196588852232 miss=29.287128712871286 total=5318679/529680/4788999/0
APPonly dbbench/readreverse: makespan=7227416 ops=400 MB/s=162.14301210833858 miss=28.349106203995795 total=7227416/430616/6796800/0
APPonly dbbench/readscan: makespan=7579492 ops=416 MB/s=160.795736706365 miss=25.525193492339284 total=7579492/924186/6655306/0
APPonly dbbench/multireadrandom: makespan=11626446 ops=400 MB/s=100.79391415054953 miss=23.14212199182685 total=11626446/1946628/9679818/0
APPonly snappy: makespan=42819168 in=8388608 out=897297 files=4 miss=94.11764705882354 total=42819168/35743168/7076000/0
APPonly[fincore] micro/private-seq: makespan=16438597 read=16777216 write=0 miss=20.390625 total=16438597/4736044/9358057/2344496
APPonly[fincore] micro/private-rand: makespan=63565502 read=16777216 write=0 miss=74.31832593532023 total=63565502/4092582/57889954/1582966
APPonly[fincore] micro/shared-seq: makespan=16438597 read=16777216 write=0 miss=20.390625 total=16438597/4736044/9358057/2344496
APPonly[fincore] micro/shared-rand: makespan=63565502 read=16777216 write=0 miss=74.31832593532023 total=63565502/4092582/57889954/1582966
APPonly[fincore] mmap/seq=true: makespan=358148748 read=16777216 miss=100 total=358148748/10848908/347299840/0
APPonly[fincore] mmap/seq=false: makespan=238711164 read=16777216 miss=66.6015625 total=238711164/7404044/231307120/0
APPonly[fincore] filebench/seqread: makespan=5228696 ops=128 bytes=16777216 miss=12.5 total=5228696/2488136/2740560/0
APPonly[fincore] filebench/randread: makespan=9180818 ops=128 bytes=1048576 miss=78.90625 total=9180818/335238/8845580/0
APPonly[fincore] filebench/mongodb: makespan=13504076 ops=128 bytes=2162688 miss=76.92307692307692 total=13504076/1144552/12359524/0
APPonly[fincore] filebench/videoserver: makespan=131719971 ops=128 bytes=134217728 miss=0 total=131719971/30604760/101074211/41000
APPonly[fincore] ycsb/YCSB-A: makespan=8432775 ops=300 r/w/s=160/140/0 miss=28.34413671184443 total=8432775/962624/7470151/0
APPonly[fincore] ycsb/YCSB-B: makespan=13750022 ops=300 r/w/s=281/19/0 miss=29.075360769641904 total=13750022/1230790/12519232/0
APPonly[fincore] ycsb/YCSB-C: makespan=16169073 ops=300 r/w/s=300/0/0 miss=29.17412426489389 total=16169073/1468102/14700971/0
APPonly[fincore] ycsb/YCSB-D: makespan=11786277 ops=300 r/w/s=285/15/0 miss=28.309377138945926 total=11786277/1044364/10741913/0
APPonly[fincore] ycsb/YCSB-E: makespan=107352744 ops=300 r/w/s=0/21/279 miss=10.663653862247887 total=107352744/23397344/83955400/0
APPonly[fincore] ycsb/YCSB-F: makespan=16895986 ops=442 r/w/s=300/142/0 miss=31.543715846994534 total=16895986/1545684/15350302/0
APPonly[fincore] dbbench/fillseq: makespan=1137384 ops=400 MB/s=1030.3248507100504 miss=0 total=1137384/1137384/0/0
APPonly[fincore] dbbench/fillrandom: makespan=1137384 ops=400 MB/s=1030.3248507100504 miss=0 total=1137384/1137384/0/0
APPonly[fincore] dbbench/readrandom: makespan=18376558 ops=400 MB/s=63.77010319342719 miss=44.66498393758605 total=18376558/2044644/16227035/104879
APPonly[fincore] dbbench/readseq: makespan=5318679 ops=400 MB/s=220.33196588852232 miss=29.287128712871286 total=5318679/529680/4788999/0
APPonly[fincore] dbbench/readreverse: makespan=7227416 ops=400 MB/s=162.14301210833858 miss=28.349106203995795 total=7227416/430616/6796800/0
APPonly[fincore] dbbench/readscan: makespan=7579492 ops=416 MB/s=160.795736706365 miss=25.525193492339284 total=7579492/924186/6655306/0
APPonly[fincore] dbbench/multireadrandom: makespan=11894131 ops=400 MB/s=98.52548286209391 miss=25.47156016961544 total=11894131/1939006/9954072/1053
APPonly[fincore] snappy: makespan=42819168 in=8388608 out=897297 files=4 miss=94.11764705882354 total=42819168/35743168/7076000/0
OSonly micro/private-seq: makespan=13592933 read=16777216 write=0 miss=0.29296875 total=13592933/4785930/8380817/426186
OSonly micro/private-rand: makespan=67826554 read=16777216 write=0 miss=66.69921875 total=67826554/4198274/63628280/0
OSonly micro/shared-seq: makespan=13592933 read=16777216 write=0 miss=0.29296875 total=13592933/4785930/8380817/426186
OSonly micro/shared-rand: makespan=67826554 read=16777216 write=0 miss=66.69921875 total=67826554/4198274/63628280/0
OSonly mmap/seq=true: makespan=35144456 read=16777216 miss=25 total=35144456/2724104/32420352/0
OSonly mmap/seq=false: makespan=74263011 read=16777216 miss=57.71484375 total=74263011/4828400/69434611/0
OSonly filebench/seqread: makespan=5228696 ops=128 bytes=16777216 miss=12.5 total=5228696/2488136/2740560/0
OSonly filebench/randread: makespan=9180818 ops=128 bytes=1048576 miss=78.90625 total=9180818/335238/8845580/0
OSonly filebench/mongodb: makespan=13504076 ops=128 bytes=2162688 miss=76.92307692307692 total=13504076/1144552/12359524/0
OSonly filebench/videoserver: makespan=131719971 ops=128 bytes=134217728 miss=0 total=131719971/30604760/101074211/41000
OSonly ycsb/YCSB-A: makespan=8432775 ops=300 r/w/s=160/140/0 miss=5.966411314083677 total=8432775/962624/7470151/0
OSonly ycsb/YCSB-B: makespan=13750022 ops=300 r/w/s=281/19/0 miss=8.778727952966328 total=13750022/1230790/12519232/0
OSonly ycsb/YCSB-C: makespan=16169073 ops=300 r/w/s=300/0/0 miss=9.754538481206852 total=16169073/1468102/14700971/0
OSonly ycsb/YCSB-D: makespan=11786277 ops=300 r/w/s=285/15/0 miss=7.515400410677618 total=11786277/1044364/10741913/0
OSonly ycsb/YCSB-E: makespan=119811401 ops=300 r/w/s=0/21/279 miss=14.416154521510096 total=119811401/18543702/101261279/6420
OSonly ycsb/YCSB-F: makespan=16895986 ops=442 r/w/s=300/142/0 miss=10.792349726775956 total=16895986/1545684/15350302/0
OSonly dbbench/fillseq: makespan=1137384 ops=400 MB/s=1030.3248507100504 miss=0 total=1137384/1137384/0/0
OSonly dbbench/fillrandom: makespan=1137384 ops=400 MB/s=1030.3248507100504 miss=0 total=1137384/1137384/0/0
OSonly dbbench/readrandom: makespan=28213807 ops=400 MB/s=41.53551486334332 miss=20.75700227100681 total=28213807/2290480/25923327/0
OSonly dbbench/readseq: makespan=1751316 ops=400 MB/s=669.1396641154423 miss=0.8406893652795292 total=1751316/463246/1288070/0
OSonly dbbench/readreverse: makespan=7227416 ops=400 MB/s=162.14301210833858 miss=7.04521556256572 total=7227416/430616/6796800/0
OSonly dbbench/readscan: makespan=9121273 ops=416 MB/s=133.61621782398137 miss=8.617594254937163 total=9121273/659836/8461437/0
OSonly dbbench/multireadrandom: makespan=11626446 ops=400 MB/s=100.79391415054953 miss=7.809898592401998 total=11626446/1946628/9679818/0
OSonly snappy: makespan=43153748 in=8388608 out=897297 files=4 miss=100 total=43153748/35720608/7433140/0
CrossP[+predict+opt] micro/private-seq: makespan=12234146 read=16777216 write=0 miss=0 total=12234146/3489426/6901086/1843634
CrossP[+predict+opt] micro/private-rand: makespan=58793603 read=16777216 write=0 miss=53.90625 total=58793603/4179396/54160955/453252
CrossP[+predict+opt] micro/shared-seq: makespan=12234146 read=16777216 write=0 miss=0 total=12234146/3489426/6901086/1843634
CrossP[+predict+opt] micro/shared-rand: makespan=58793603 read=16777216 write=0 miss=53.90625 total=58793603/4179396/54160955/453252
CrossP[+predict+opt] mmap/seq=true: makespan=29540592 read=16777216 miss=17.578125 total=29540592/2062092/26991190/487310
CrossP[+predict+opt] mmap/seq=false: makespan=72121220 read=16777216 miss=55.859375 total=72121220/4675088/67312850/133282
CrossP[+predict+opt] filebench/seqread: makespan=3702439 ops=128 bytes=16777216 miss=0 total=3702439/2321180/1248309/132950
CrossP[+predict+opt] filebench/randread: makespan=1775003 ops=128 bytes=1048576 miss=0 total=1775003/299480/1342519/133004
CrossP[+predict+opt] filebench/mongodb: makespan=13308804 ops=128 bytes=2162688 miss=0 total=13308804/1027280/12177124/104400
CrossP[+predict+opt] filebench/videoserver: makespan=131722051 ops=128 bytes=134217728 miss=0 total=131722051/30638040/101044311/39700
CrossP[+predict+opt] ycsb/YCSB-A: makespan=6561321 ops=300 r/w/s=160/140/0 miss=2.6222746022392456 total=6561321/917216/5189291/454814
CrossP[+predict+opt] ycsb/YCSB-B: makespan=9239840 ops=300 r/w/s=281/19/0 miss=3.727952966328167 total=9239840/1128530/7656532/454778
CrossP[+predict+opt] ycsb/YCSB-C: makespan=11065068 ops=300 r/w/s=300/0/0 miss=4.154947583738174 total=11065068/1351228/9257466/456374
CrossP[+predict+opt] ycsb/YCSB-D: makespan=6194400 ops=300 r/w/s=285/15/0 miss=1.1225188227241616 total=6194400/907354/4832958/454088
CrossP[+predict+opt] ycsb/YCSB-E: makespan=115862236 ops=300 r/w/s=0/21/279 miss=13.194029850746269 total=115862236/19137726/96263210/461300
CrossP[+predict+opt] ycsb/YCSB-F: makespan=11551050 ops=442 r/w/s=300/142/0 miss=5.259562841530054 total=11551050/1448494/9652440/450116
CrossP[+predict+opt] dbbench/fillseq: makespan=1212584 ops=400 MB/s=966.4278928305173 miss=0 total=1212584/1212584/0/0
CrossP[+predict+opt] dbbench/fillrandom: makespan=1212584 ops=400 MB/s=966.4278928305173 miss=0 total=1212584/1212584/0/0
CrossP[+predict+opt] dbbench/readrandom: makespan=12937321 ops=400 MB/s=90.5809634003825 miss=5.82891748675246 total=12937321/1977572/10500963/458786
CrossP[+predict+opt] dbbench/readseq: makespan=4275200 ops=400 MB/s=274.10998315868267 miss=0.4203446826397646 total=4275200/321160/3494842/459198
CrossP[+predict+opt] dbbench/readreverse: makespan=5577840 ops=400 MB/s=210.09476786713137 miss=4.206098843322818 total=5577840/403346/5136784/37710
CrossP[+predict+opt] dbbench/readscan: makespan=5598079 ops=416 MB/s=217.70861040010334 miss=0.2992220227408737 total=5598079/518046/4617499/462534
CrossP[+predict+opt] dbbench/multireadrandom: makespan=9047434 ops=400 MB/s=129.5256754567096 miss=1.4227334645073406 total=9047434/1876744/6713500/457190
CrossP[+predict+opt] snappy: makespan=41692182 in=8388608 out=897297 files=4 miss=23.4375 total=41692182/35081820/6203030/407332
OSonly micro/shared-rand t=4: makespan=18351360 read=16777216 write=0 miss=67.67578125 total=69342026/4216608/65016174/109244
OSonly micro/shared-rand t=4+4w: makespan=15424212 read=16777216 write=16777216 miss=57.71484375 total=70480544/8797758/55766572/5916214
OSonly mmap/seq=false t=4: makespan=24351425 read=16777216 miss=58.984375 total=92175006/4926866/86762861/485279
OSonly filebench/randread t=4: makespan=9826724 ops=512 bytes=4194304 miss=81.0546875 total=37803070/1349090/36453980/0
OSonly filebench/mongodb i=2 t=2: makespan=13652778 ops=512 bytes=8650752 miss=72.37790232185749 total=53823134/4533560/49289574/0
OSonly ycsb/YCSB-A t=4: makespan=9068877 ops=1200 r/w/s=613/587/0 miss=12.68418467583497 total=32227571/3719920/28409598/98053
OSonly ycsb/YCSB-D t=4: makespan=8322824 ops=1200 r/w/s=1141/59/0 miss=13.924714270735032 total=31599633/3318154/28278045/3434
OSonly dbbench/multireadrandom t=4: makespan=9738424 ops=1600 MB/s=481.34071796422086 miss=10.317280880247193 total=35810596/7472236/28332394/5966
OSonly snappy t=4: makespan=14767059 in=8388608 out=897297 files=4 miss=100 total=54770526/35720608/19049918/0
CrossP[+predict+opt] micro/shared-rand t=4: makespan=18638700 read=16777216 write=0 miss=52.44140625 total=66322196/4158494/59460156/2703546
CrossP[+predict+opt] micro/shared-rand t=4+4w: makespan=18044332 read=16777216 write=16777216 miss=56.4453125 total=87521114/9161948/67634892/10724274
CrossP[+predict+opt] mmap/seq=false t=4: makespan=23755031 read=16777216 miss=56.54296875 total=87536692/4674596/81857466/1004630
CrossP[+predict+opt] filebench/randread t=4: makespan=7814861 ops=512 bytes=4194304 miss=11.328125 total=17270897/1160100/15654153/456644
CrossP[+predict+opt] filebench/mongodb i=2 t=2: makespan=12980525 ops=512 bytes=8650752 miss=4.483586869495596 total=51296865/4139740/46774145/382980
CrossP[+predict+opt] ycsb/YCSB-A t=4: makespan=8561290 ops=1200 r/w/s=613/587/0 miss=5.933341472347698 total=30163986/3726164/25741675/696147
CrossP[+predict+opt] ycsb/YCSB-D t=4: makespan=6260177 ops=1200 r/w/s=1141/59/0 miss=4.410374881864959 total=23682096/3087746/19974306/620044
CrossP[+predict+opt] dbbench/multireadrandom t=4: makespan=8825604 ops=1600 MB/s=531.1251218613479 miss=2.7884542919587005 total=32586709/7387746/24579303/619660
CrossP[+predict+opt] snappy t=4: makespan=11504573 in=8388608 out=897297 files=4 miss=23.4375 total=43502558/35093878/7998736/409944
`
