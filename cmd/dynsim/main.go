// Command dynsim runs a single dynamic-network simulation from the
// command line: pick a problem, an algorithm, an adversary and a
// workload, and get per-round statistics plus a final verdict from the
// round-by-round checkers.
//
// Usage examples:
//
//	go run ./cmd/dynsim -problem mis -algo combined -adversary churn -n 1024 -rounds 200
//	go run ./cmd/dynsim -problem coloring -algo greedy -adversary markov -csv
//	go run ./cmd/dynsim -problem mis -algo restart -adversary static -n 512
//	go run ./cmd/dynsim -adversary p2p -n 4096 -rounds 500 -record run.trace
//	go run ./cmd/dynsim -trace run.trace
//	go run ./cmd/dynsim -adversary churn -rounds 10000 -checkpoint run.ck -checkpoint-every 500
//	go run ./cmd/dynsim -adversary churn -rounds 10000 -checkpoint run.ck -checkpoint-every 500 -checkpoint-full-every 8
//	go run ./cmd/dynsim -adversary churn -rounds 10000 -resume run.ck
//	go run ./cmd/dynsim -recover torn.trace -record salvaged.trace
//
// -record streams every round's wake set and topology diff to a trace
// file; -trace replays such a file (node count and, by default, round
// count come from its header) through the streaming decoder, so traces
// far larger than memory replay in constant memory.
//
// Recording is crash-safe: rounds stream to a temporary file that is
// fsynced and renamed into place only on clean completion, and with
// -checkpoint-every the stream is additionally fsynced at the same
// cadence, so a crash leaves a torn temporary that -recover salvages
// back to the last complete round.
//
// -checkpoint writes the full deterministic run state (engine, algorithm
// nodes, adversary, checker — see docs/checkpointing.md) atomically at
// the end of the run, as a one-record chain: the base record, which
// lists what differs from a freshly constructed run. With
// -checkpoint-every k the first periodic checkpoint atomically writes
// that base, and each later one appends a delta record covering only the
// state that moved since the previous record, so the steady-state
// checkpoint cost scales with the inter-checkpoint activity rather than
// the universe size. -checkpoint-full-every m rebases the chain — an
// atomic rewrite with a fresh base — every m checkpoints, bounding both
// the chain length a resume must replay and the file growth.
//
// -resume restores a chain and plays the remaining rounds; the run must
// be reconstructed with the same flags (problem, algo, adversary, n,
// seed) — the base record rejects any mismatch — and the resumed rounds
// are bit-identical to the uninterrupted run, under any worker count.
// When -resume and -checkpoint name the same chain file, the run keeps
// appending deltas to the chain it restored from.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"dynlocal"
	"dynlocal/internal/stats"
)

// errFlagParse marks flag errors the FlagSet has already reported to
// stderr, so main does not print them a second time.
var errFlagParse = errors.New("flag parse error")

func main() {
	invalidRounds, strict, err := run(os.Args[1:], os.Stdout)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return
	case errors.Is(err, errFlagParse):
		os.Exit(2)
	case err != nil:
		log.Fatal(err)
	}
	if invalidRounds > 0 && strict {
		os.Exit(1)
	}
}

// run executes one simulation and reports the number of invalid rounds
// plus whether that should fail the process (the combined and restart
// algorithms promise zero invalid rounds). Factored out of main so smoke
// tests can drive the full CLI path.
func run(args []string, out io.Writer) (invalidRounds int, strict bool, err error) {
	fs := flag.NewFlagSet("dynsim", flag.ContinueOnError)
	problem := fs.String("problem", "mis", "problem: mis | coloring")
	algo := fs.String("algo", "combined", "algorithm: combined | dynamic | static | greedy | restart")
	adversaryKind := fs.String("adversary", "churn", "adversary: static | churn | markov | p2p")
	n := fs.Int("n", 512, "number of nodes")
	rounds := fs.Int("rounds", 200, "rounds to simulate")
	churn := fs.Int("churn", 8, "edges inserted+deleted per round (churn adversary)")
	flap := fs.Float64("flap", 0.05, "per-edge flip probability (markov adversary)")
	avgDeg := fs.Float64("deg", 8, "average degree of the base graph")
	seed := fs.Uint64("seed", 1, "random seed")
	every := fs.Int("every", 10, "print a row every k rounds")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	tracePath := fs.String("trace", "", "replay a recorded trace file instead of running an adversary (-n and default -rounds come from its header)")
	recordPath := fs.String("record", "", "record the run's rounds to a trace file (written atomically: temp file, fsync, rename)")
	recoverPath := fs.String("recover", "", "salvage a torn trace recording into the -record path and exit")
	checkpointPath := fs.String("checkpoint", "", "write run state to this file (atomically) at the end of the run, and periodically with -checkpoint-every")
	checkpointEvery := fs.Int("checkpoint-every", 0, "also checkpoint (and fsync the recording) every k rounds, as an incremental chain: full base record first, one appended delta record per later checkpoint")
	checkpointFullEvery := fs.Int("checkpoint-full-every", 0, "with -checkpoint-every, rebase the chain (atomic rewrite with a fresh full base record) every m checkpoints; 0 never rebases")
	resumePath := fs.String("resume", "", "restore run state from a checkpoint file and play the remaining rounds (pass the same flags as the checkpointed run)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false, err
		}
		return 0, false, fmt.Errorf("%w: %v", errFlagParse, err)
	}
	if *checkpointEvery > 0 && *checkpointPath == "" {
		return 0, false, errors.New("-checkpoint-every requires -checkpoint")
	}
	if *checkpointFullEvery > 0 && *checkpointEvery == 0 {
		return 0, false, errors.New("-checkpoint-full-every requires -checkpoint-every")
	}
	if *recoverPath != "" {
		if *recordPath == "" {
			return 0, false, errors.New("-recover requires -record as the salvage destination")
		}
		n, err := recoverTrace(*recoverPath, *recordPath)
		if err != nil {
			return 0, false, err
		}
		fmt.Fprintf(out, "recovered %d complete rounds from %s into %s\n", n, *recoverPath, *recordPath)
		return 0, false, nil
	}

	// A replayed trace dictates the node universe and, unless -rounds was
	// given explicitly, the round count; its header must be read before
	// the algorithm (sized by n) is built.
	var streamed *dynlocal.ScriptedStreamAdversary
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return 0, false, err
		}
		defer f.Close()
		dec, err := dynlocal.NewTraceStreamDecoder(f)
		if err != nil {
			return 0, false, fmt.Errorf("reading trace %s: %w", *tracePath, err)
		}
		*n = dec.N()
		roundsSet := false
		fs.Visit(func(fl *flag.Flag) { roundsSet = roundsSet || fl.Name == "rounds" })
		if !roundsSet {
			*rounds = dec.Rounds()
		}
		streamed = dynlocal.NewScriptedStream(dec)
	}

	var pc dynlocal.Problem
	var algorithm dynlocal.Algorithm
	window := 0
	switch *problem {
	case "mis":
		pc = dynlocal.MISProblem()
		switch *algo {
		case "combined":
			c := dynlocal.NewMIS(*n)
			algorithm, window = c, c.T1
		case "dynamic":
			c := dynlocal.NewMIS(*n)
			algorithm, window = dynlocal.NewDMis(*n), c.T1
		case "static":
			c := dynlocal.NewMIS(*n)
			algorithm, window = dynlocal.NewSMis(*n), c.T1
		case "greedy":
			c := dynlocal.NewMIS(*n)
			algorithm, window = dynlocal.NewGreedyRepairMIS(*n), c.T1
		case "restart":
			c := dynlocal.NewRestartMIS(*n)
			algorithm, window = c, c.T1
		default:
			return 0, false, fmt.Errorf("unknown -algo %q for mis", *algo)
		}
	case "coloring":
		pc = dynlocal.ColoringProblem()
		switch *algo {
		case "combined":
			c := dynlocal.NewColoring(*n)
			algorithm, window = c, c.T1
		case "dynamic":
			c := dynlocal.NewColoring(*n)
			algorithm, window = dynlocal.NewDColor(*n), c.T1
		case "static":
			c := dynlocal.NewColoring(*n)
			algorithm, window = dynlocal.NewSColor(*n), c.T1
		case "greedy":
			c := dynlocal.NewColoring(*n)
			algorithm, window = dynlocal.NewGreedyRepairColoring(*n), c.T1
		default:
			return 0, false, fmt.Errorf("unknown -algo %q for coloring", *algo)
		}
	default:
		return 0, false, fmt.Errorf("unknown -problem %q", *problem)
	}

	var adv dynlocal.Adversary
	if streamed != nil {
		adv = streamed
		*adversaryKind = "trace"
	} else {
		switch *adversaryKind {
		case "static":
			adv = dynlocal.StaticAdversary{G: dynlocal.GNP(*n, *avgDeg/float64(*n), *seed)}
		case "churn":
			adv = dynlocal.NewChurn(dynlocal.GNP(*n, *avgDeg/float64(*n), *seed), *churn, *churn, *seed+1)
		case "markov":
			adv = dynlocal.NewEdgeMarkov(dynlocal.GNP(*n, *avgDeg/float64(*n), *seed), *flap, *flap, *seed+1)
		case "p2p":
			adv = &dynlocal.P2PChurnAdversary{
				N:            *n,
				Init:         *n / 8,
				JoinPerRound: *churn,
				Seed:         *seed + 1,
			}
		default:
			return 0, false, fmt.Errorf("unknown -adversary %q", *adversaryKind)
		}
	}

	eng := dynlocal.NewEngine(dynlocal.EngineConfig{N: *n, Seed: *seed}, adv, algorithm)
	check := dynlocal.NewTDynamicChecker(pc, window, *n)

	// A resumed run restores engine, algorithm nodes, adversary and
	// checker state before any round plays; the checkpoint header rejects
	// a reconstruction that does not match the checkpointed run.
	startRound := 0
	// chainRecs counts the records in the live chain file; 0 means no
	// chain has been started yet.
	chainRecs := 0
	if *resumePath != "" {
		if err := readCheckpointFile(*resumePath, eng, check); err != nil {
			return 0, false, fmt.Errorf("resuming from %s: %w", *resumePath, err)
		}
		startRound = eng.Round()
		if startRound >= *rounds {
			return 0, false, fmt.Errorf("checkpoint %s is at round %d, at or past -rounds %d", *resumePath, startRound, *rounds)
		}
		if *checkpointEvery > 0 && *checkpointPath == *resumePath {
			// The resumed chain is also the checkpoint target: keep
			// appending deltas to it instead of restarting a chain.
			chainRecs = int(eng.ChainSeq())
		}
	}

	// Recording streams to a temporary file renamed into place only on
	// clean completion; a crash leaves a torn temporary for -recover.
	var rec *dynlocal.TraceStreamEncoder
	var recFile *os.File
	if *recordPath != "" {
		f, err := os.Create(*recordPath + ".tmp")
		if err != nil {
			return 0, false, err
		}
		recFile = f
		defer func() {
			if recFile != nil {
				recFile.Close()
				os.Remove(recFile.Name())
			}
		}()
		rec, err = dynlocal.NewTraceStreamEncoder(f, *n, *rounds-startRound)
		if err != nil {
			return 0, false, err
		}
		rec.SyncEvery(*checkpointEvery)
		eng.OnRound(func(info *dynlocal.RoundInfo) {
			if err := rec.WriteRound(info.Wake, info.EdgeAdds, info.EdgeRemoves); err != nil {
				log.Fatalf("recording round %d: %v", info.Round, err)
			}
		})
	}

	table := stats.NewTable("round", "outputs", "core", "invalid?", "packViol", "coverViol", "msgs")
	eng.OnRound(func(info *dynlocal.RoundInfo) {
		rep := check.Feed(info.Delta())
		if !rep.Valid() {
			invalidRounds++
		}
		if info.Round != 1 && info.Round%*every != 0 {
			return
		}
		produced := 0
		for _, out := range info.Outputs {
			if out != dynlocal.Bot {
				produced++
			}
		}
		table.AddRow(info.Round, produced, rep.CoreNodes, !rep.Valid(),
			len(rep.PackingViolations), len(rep.CoverViolations), info.Messages)
	})
	for eng.Round() < *rounds {
		eng.Step()
		// Checkpoints are taken here, at the round barrier between Steps,
		// never from inside an observer.
		if *checkpointEvery > 0 && eng.Round() < *rounds &&
			(eng.Round()-startRound)%*checkpointEvery == 0 {
			if err := chainCheckpoint(*checkpointPath, eng, check, &chainRecs, *checkpointFullEvery); err != nil {
				return 0, false, fmt.Errorf("checkpoint at round %d: %w", eng.Round(), err)
			}
		}
	}
	if *checkpointPath != "" {
		var err error
		if chainRecs > 0 {
			err = appendCheckpointDelta(*checkpointPath, eng, check)
		} else {
			err = startCheckpointChain(*checkpointPath, eng, check)
		}
		if err != nil {
			return 0, false, fmt.Errorf("final checkpoint: %w", err)
		}
	}
	if rec != nil {
		err := commitAtomic(recFile, *recordPath, rec.Close())
		recFile = nil
		if err != nil {
			return 0, false, fmt.Errorf("recording trace: %w", err)
		}
	}
	if streamed != nil {
		if err := streamed.Err(); err != nil {
			return 0, false, fmt.Errorf("replaying trace %s: %w", *tracePath, err)
		}
	}

	fmt.Fprintf(out, "%s / %s / %s: n=%d, window T=%d, %d rounds",
		*problem, *algo, *adversaryKind, *n, window, *rounds)
	if startRound > 0 {
		fmt.Fprintf(out, " (resumed at round %d)", startRound)
	}
	fmt.Fprint(out, "\n\n")
	if *csv {
		table.CSV(out)
	} else {
		table.Render(out)
	}
	fmt.Fprintf(out, "\ninvalid rounds: %d / %d\n", invalidRounds, *rounds-startRound)
	return invalidRounds, *algo == "combined" || *algo == "restart", nil
}

// chainCheckpoint advances the incremental checkpoint chain: the first
// call — and every rebase, once fullEvery records have accumulated —
// atomically rewrites path as a fresh chain (magic plus one base
// record); later calls append one delta record, so the steady-state
// checkpoint cost scales with inter-checkpoint activity, not with n.
func chainCheckpoint(path string, e *dynlocal.Engine, c *dynlocal.TDynamicChecker, recs *int, fullEvery int) error {
	if *recs == 0 || (fullEvery > 0 && *recs >= fullEvery) {
		if err := startCheckpointChain(path, e, c); err != nil {
			return err
		}
		*recs = 1
		return nil
	}
	if err := appendCheckpointDelta(path, e, c); err != nil {
		return err
	}
	*recs++
	return nil
}

// commitAtomic finishes a file written as path+".tmp" beside its
// target: unless err (the writer's outcome) is set, it fsyncs and closes
// the file and renames it over path, so a crash or failure part way
// never clobbers the previous file. On any failure the temporary file is
// removed. The recorder, chain bases and trace recovery all use it.
func commitAtomic(f *os.File, path string, err error) error {
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// startCheckpointChain atomically (re)creates path as a chain container
// holding one base record, so a crash mid-checkpoint never clobbers the
// previous good chain.
func startCheckpointChain(path string, e *dynlocal.Engine, c *dynlocal.TDynamicChecker) error {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return err
	}
	return commitAtomic(f, path, dynlocal.WriteCheckpointChain(f, e, c))
}

// appendCheckpointDelta appends one fsynced delta record to the chain
// file in place. A crash mid-append leaves a torn tail that fails the
// chain's record framing on resume — rebase (or restart the run from the
// last good chain prefix) rather than trusting a torn tail.
func appendCheckpointDelta(path string, e *dynlocal.Engine, c *dynlocal.TDynamicChecker) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	err = dynlocal.AppendCheckpointDelta(f, e, c)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readCheckpointFile restores the chain at path into the freshly built
// run.
func readCheckpointFile(path string, e *dynlocal.Engine, c *dynlocal.TDynamicChecker) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return dynlocal.ReadCheckpointChain(bufio.NewReader(f), e, c, nil)
}

// recoverTrace salvages the longest complete-round prefix of a torn
// trace recording into dst, written atomically like the recording.
func recoverTrace(src, dst string) (int, error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	f, err := os.Create(dst + ".tmp")
	if err != nil {
		return 0, err
	}
	n, err := dynlocal.RecoverTrace(in, f)
	if err := commitAtomic(f, dst, err); err != nil {
		return 0, err
	}
	return n, nil
}
