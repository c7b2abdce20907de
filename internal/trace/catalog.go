package trace

import "slices"

// catalog is the suite, built once; catalogIndex maps each name to its
// position. Spec holds no reference types, so a copy of an entry shares
// nothing with it.
var (
	catalog      = buildCatalog()
	catalogIndex = indexCatalog(catalog)
)

// Catalog returns the 65-workload suite mirroring the paper's Table 3:
// the full SPEC CPU2017 suite, SPEC CPU2006, and well-known Cloud and
// Client benchmarks, plus lammps. Each entry is a seeded kernel mix whose
// parameters encode what is publicly known about the application's
// behaviour (pointer-chasing mcf, FP-bound wrf, irregular tonto/gamess/
// milc, call-heavy perlbench/xalancbmk, and so on).
//
// The profiles are tuned so the population reproduces the paper's aggregate
// facts: ~93% of loads hit the L1, roughly half of all loads are
// stride-predictable, FSPEC is FP-latency-bound (low RFP sensitivity), and
// a handful of workloads are strongly latency-critical with modest
// coverage (xalancbmk, namd, lammps, hadoop).
//
// The slice is the caller's own copy.
func Catalog() []Spec { return slices.Clone(catalog) }

// indexCatalog maps each spec's name to its position in specs.
func indexCatalog(specs []Spec) map[string]int {
	index := make(map[string]int, len(specs))
	for i, s := range specs {
		index[s.Name] = i
	}
	return index
}

// buildCatalog builds the suite Catalog returns.
func buildCatalog() []Spec {
	var specs []Spec
	add := func(name string, cat Category, p profile) {
		specs = append(specs, Spec{
			Name:     name,
			Category: cat,
			Seed:     hashName(name),
			prof:     p,
		})
	}

	// --- Archetype profiles -------------------------------------------------

	// intMix: typical SPECint — stacks, branches, some streaming, a hash.
	intMix := profile{
		stream: 3, branchy: 3, stack: 2, hash: 1, chase: 2,
		foot: footL1, bigFoot: footL2, stride: 8,
		takenProb: 0.85, constVals: 0.20, strideVals: 0.10,
	}
	// memBound: mcf/omnetpp — dominated by random pointer chasing.
	memBound := profile{
		randChase: 5, chase: 2, stream: 1, stack: 1,
		foot: footL1, bigFoot: footMem, stride: 8,
		constVals: 0.20, strideVals: 0.05,
	}
	// chaseCrit: xalancbmk/namd/lammps/hadoop — strided pointer chases on
	// the critical path, diluted by surrounding work as in real programs;
	// moderate coverage, outsized gains.
	chaseCrit := profile{
		chase: 3, stream: 2, stack: 1, hash: 2, branchy: 1,
		foot: footL1, bigFoot: footL2, stride: 16,
		strideBreak: 0.02, constVals: 0.25, strideVals: 0.10,
	}
	// fpBound: FSPEC — serial FMA chains dominate; loads plentiful but
	// off the critical path.
	fpBound := profile{
		fp: 5, stencil: 2, stream: 1,
		foot: footL1b, stride: 8, fpChain: 3,
		constVals: 0.15, strideVals: 0.15,
	}
	// fpStream: bandwidth-style FP (lbm, bwaves) — stencils and streams
	// over cache-resident tiles (the blocked inner loops of FSPEC codes).
	fpStream := profile{
		stencil: 4, stream: 3, fp: 1,
		foot: footL1, stride: 8,
		constVals: 0.15, strideVals: 0.15,
	}
	// irregular: tonto/gamess/milc — hash-dominated, low stride coverage.
	irregular := profile{
		hash: 5, fp: 2, stack: 1, branchy: 1,
		foot: footL1, bigFoot: footL2, stride: 8,
		takenProb: 0.8, constVals: 0.15, strideVals: 0.05,
	}
	// gatherMix: astar/soplex — indirect accesses fed by strided indices.
	gatherMix := profile{
		gather: 4, stream: 2, branchy: 1, stack: 1,
		foot: footL1, bigFoot: footLLC, stride: 8,
		takenProb: 0.8, constVals: 0.2, strideVals: 0.1,
	}
	// branchHeavy: gobmk/sjeng/deepsjeng/leela — hard branches.
	branchHeavy := profile{
		branchy: 5, stack: 2, stream: 1, hash: 1,
		foot: footL1, bigFoot: footL2, stride: 8,
		takenProb: 0.78, constVals: 0.2, strideVals: 0.05,
	}
	// streamHeavy: libquantum/lbm/hmmer — regular streaming.
	streamHeavy := profile{
		stream: 5, stencil: 1, branchy: 1,
		foot: footL1, stride: 64,
		takenProb: 0.9, constVals: 0.2, strideVals: 0.2,
	}
	// cloudMix: server codes — stack/branch-heavy with B-tree index
	// probes (searchKernel) and L2/LLC-resident data.
	cloudMix := profile{
		stack: 3, branchy: 2, hash: 2, chase: 2, stream: 2, gather: 1, search: 1,
		foot: footL1, bigFoot: footLLC, stride: 8,
		takenProb: 0.78, constVals: 0.22, strideVals: 0.05,
	}
	// clientMix: interactive codes — mixed, mostly cache-resident.
	clientMix := profile{
		stream: 3, branchy: 2, stack: 2, fp: 2, hash: 1, chase: 1,
		foot: footL1, bigFoot: footL2, stride: 8,
		takenProb: 0.8, constVals: 0.2, strideVals: 0.1,
	}

	with := func(p profile, mut func(*profile)) profile { mut(&p); return p }

	// --- SPEC CPU2006 (29) --------------------------------------------------
	add("spec06_perlbench", Spec06, intMix)
	add("spec06_bzip2", Spec06, with(streamHeavy, func(p *profile) { p.gather = 2; p.stride = 8 }))
	add("spec06_gcc", Spec06, with(intMix, func(p *profile) { p.stack = 3; p.bigFoot = footLLC }))
	add("spec06_mcf", Spec06, memBound)
	add("spec06_gobmk", Spec06, with(branchHeavy, func(p *profile) { p.search = 1 }))
	add("spec06_hmmer", Spec06, with(streamHeavy, func(p *profile) { p.stride = 16 }))
	add("spec06_sjeng", Spec06, with(branchHeavy, func(p *profile) { p.hash = 2 }))
	add("spec06_libquantum", Spec06, with(streamHeavy, func(p *profile) { p.foot = footL1b }))
	add("spec06_h264ref", Spec06, with(clientMix, func(p *profile) { p.stencil = 3; p.stream = 4 }))
	add("spec06_omnetpp", Spec06, with(memBound, func(p *profile) { p.hash = 2; p.bigFoot = footLLC }))
	add("spec06_astar", Spec06, gatherMix)
	add("spec06_xalancbmk", Spec06, chaseCrit)
	add("spec06_bwaves", Spec06, fpStream)
	add("spec06_gamess", Spec06, irregular)
	add("spec06_milc", Spec06, with(irregular, func(p *profile) { p.bigFoot = footLLC }))
	add("spec06_zeusmp", Spec06, with(fpStream, func(p *profile) { p.foot = footL1b }))
	add("spec06_gromacs", Spec06, fpBound)
	add("spec06_cactusADM", Spec06, with(fpStream, func(p *profile) { p.fpChain = 4 }))
	add("spec06_leslie3d", Spec06, fpStream)
	add("spec06_namd", Spec06, with(chaseCrit, func(p *profile) { p.fp = 2 }))
	add("spec06_dealII", Spec06, with(chaseCrit, func(p *profile) { p.fp = 1; p.stride = 8 }))
	add("spec06_soplex", Spec06, with(gatherMix, func(p *profile) { p.bigFoot = footL2 }))
	add("spec06_povray", Spec06, with(fpBound, func(p *profile) { p.branchy = 2; p.takenProb = 0.75 }))
	add("spec06_calculix", Spec06, fpBound)
	add("spec06_gemsFDTD", Spec06, with(fpStream, func(p *profile) { p.foot = footL1b }))
	add("spec06_tonto", Spec06, with(irregular, func(p *profile) { p.hash = 6 }))
	add("spec06_lbm", Spec06, with(fpStream, func(p *profile) { p.foot = footL1b; p.stride = 64 }))
	add("spec06_wrf", Spec06, with(fpBound, func(p *profile) { p.fpChain = 5 }))
	add("spec06_sphinx3", Spec06, with(fpBound, func(p *profile) { p.stream = 3 }))

	// --- SPEC CPU2017 INT (10) ----------------------------------------------
	add("spec17_perlbench", Spec17Int, with(intMix, func(p *profile) { p.stack = 3 }))
	add("spec17_gcc", Spec17Int, with(intMix, func(p *profile) { p.bigFoot = footLLC; p.hash = 2 }))
	add("spec17_mcf", Spec17Int, with(memBound, func(p *profile) { p.gather = 2 }))
	add("spec17_omnetpp", Spec17Int, with(memBound, func(p *profile) { p.bigFoot = footLLC; p.chase = 3 }))
	add("spec17_xalancbmk", Spec17Int, with(chaseCrit, func(p *profile) { p.stack = 2 }))
	add("spec17_x264", Spec17Int, with(clientMix, func(p *profile) { p.stencil = 4; p.stream = 4 }))
	add("spec17_deepsjeng", Spec17Int, with(branchHeavy, func(p *profile) { p.bigFoot = footLLC; p.search = 1 }))
	add("spec17_leela", Spec17Int, with(branchHeavy, func(p *profile) { p.chase = 2 }))
	add("spec17_exchange2", Spec17Int, with(branchHeavy, func(p *profile) { p.takenProb = 0.75; p.stream = 2 }))
	add("spec17_xz", Spec17Int, with(streamHeavy, func(p *profile) { p.gather = 3; p.bigFoot = footLLC }))

	// --- SPEC CPU2017 FP (10) -----------------------------------------------
	add("spec17_bwaves", Spec17FP, fpStream)
	add("spec17_cactuBSSN", Spec17FP, with(fpStream, func(p *profile) { p.fpChain = 4 }))
	add("spec17_lbm", Spec17FP, with(fpStream, func(p *profile) { p.foot = footL1b; p.stride = 64 }))
	add("spec17_wrf", Spec17FP, with(fpBound, func(p *profile) { p.fpChain = 5 }))
	add("spec17_cam4", Spec17FP, with(fpBound, func(p *profile) { p.branchy = 1 }))
	add("spec17_pop2", Spec17FP, with(fpStream, func(p *profile) { p.stream = 4 }))
	add("spec17_imagick", Spec17FP, with(fpBound, func(p *profile) { p.stream = 2; p.fpChain = 4 }))
	add("spec17_nab", Spec17FP, with(fpBound, func(p *profile) { p.chase = 1 }))
	add("spec17_fotonik3d", Spec17FP, with(fpStream, func(p *profile) { p.foot = footL1b }))
	add("spec17_roms", Spec17FP, fpStream)

	// --- Cloud (8) ------------------------------------------------------------
	add("spark", Cloud, with(cloudMix, func(p *profile) { p.gather = 2 }))
	add("bigbench", Cloud, with(cloudMix, func(p *profile) { p.hash = 3; p.bigFoot = footMem }))
	add("specjbb", Cloud, with(cloudMix, func(p *profile) { p.chase = 3 }))
	add("specjenterprise", Cloud, cloudMix)
	add("hadoop", Cloud, with(chaseCrit, func(p *profile) { p.stack = 2; p.branchy = 2 }))
	add("tpcc", Cloud, with(cloudMix, func(p *profile) { p.hash = 3; p.stack = 4 }))
	add("tpce", Cloud, with(cloudMix, func(p *profile) { p.gather = 2; p.bigFoot = footMem }))
	add("cassandra", Cloud, with(cloudMix, func(p *profile) { p.chase = 3; p.hash = 3 }))

	// --- Client (7) -----------------------------------------------------------
	add("sysmark_office", Client, with(clientMix, func(p *profile) { p.stack = 3 }))
	add("sysmark_media", Client, with(clientMix, func(p *profile) { p.stencil = 3; p.stream = 4 }))
	add("sysmark_data", Client, with(clientMix, func(p *profile) { p.gather = 2; p.hash = 2 }))
	add("geekbench_int", Client, with(clientMix, func(p *profile) { p.branchy = 3; p.chase = 2 }))
	add("geekbench_fp", Client, with(fpBound, func(p *profile) { p.stream = 2 }))
	add("geekbench_crypto", Client, with(streamHeavy, func(p *profile) { p.stride = 16; p.hash = 1 }))
	add("geekbench_ml", Client, with(fpStream, func(p *profile) { p.gather = 2 }))

	// --- HPC (1) ----------------------------------------------------------------
	add("lammps", HPC, with(chaseCrit, func(p *profile) { p.fp = 2; p.stride = 32 }))

	return specs
}

// hashName derives a stable seed from a workload name (FNV-1a).
func hashName(name string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	return h
}
