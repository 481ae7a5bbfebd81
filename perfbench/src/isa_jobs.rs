//! `isa_jobs`: a seeded stream of jobs cycling through the three
//! hand-assembled SPU images (gray 4096 px, hist 16384 indices, jacobi
//! 64×48), registered with `KernelDispatcher::register_image` on two
//! SPEs and driven through `cell_engine::Engine` at window 2.
//!
//! Host time here is almost all the interpreter's fetch/decode/execute
//! loop; MARVEL kernels, the serve layer and the journal do nothing.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cell_core::{CellResult, MachineConfig, SplitMix64};
use cell_engine::Engine;
use cell_isa::{
    build_gray_kernel, build_hist_kernel, build_jacobi_kernel, native_gray, native_hist,
    native_jacobi, write_header, ExecTrace, IsaImage, IsaProgram, KernelHeader, TraceSink,
    HIST_BINS,
};
use cell_mem::MainMemory;
use cell_sys::{CellMachine, Ppe, SpeEnv, SpeHandle, SpeProgram};
use cell_trace::{TraceConfig, TraceReport};
use portkit::dispatcher::{IsaTraceSink, KernelDispatcher};
use portkit::interface::ReplyMode;

use crate::layers::{
    copy_host_us_per_mib, finish_attribution, machine_counters, roundtrip_host_us, setup_seconds,
};
use crate::report::{Outcome, Phase, SpanId, Spans};
use crate::stats::{per_item, Call, Failures};
use crate::Args;

const GRAY_PIXELS: u32 = 4096;
const HIST_INDICES: u32 = 16384;
const JACOBI_W: u32 = 64;
const JACOBI_H: u32 = 48;
/// MARVEL's CH histogram has 166 bins; indices stay below that.
const HIST_USED_BINS: u64 = 166;
/// Distinct jobs per seed: four of each kernel, cycling through
/// `KERNELS`.
const POOL: usize = 12;
/// Jobs per round, the request a caller waits for: two of each kernel,
/// alternating between the two halves of the pool. A whole round, not
/// one job, is the request because job latencies cluster by kernel and
/// a median over a mix of clusters jumps between them.
const ROUND: usize = 6;
const LANES: usize = 2;
const WINDOW: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Gray,
    Hist,
    Jacobi,
}

/// Registration order, which is also the order jobs cycle through.
/// Jacobi takes the first slot: its image loads its shuffle patterns
/// from absolute LS addresses, so it computes correctly only when
/// uploaded at code base 0. Gray and hist are position independent.
const KERNELS: [Kernel; 3] = [Kernel::Jacobi, Kernel::Gray, Kernel::Hist];

impl Kernel {
    fn name(self) -> &'static str {
        match self {
            Kernel::Gray => "gray",
            Kernel::Hist => "hist",
            Kernel::Jacobi => "jacobi",
        }
    }

    fn image(self) -> CellResult<IsaImage> {
        match self {
            Kernel::Gray => build_gray_kernel(),
            Kernel::Hist => build_hist_kernel(),
            Kernel::Jacobi => build_jacobi_kernel(),
        }
    }

    fn native(self) -> fn(&mut SpeEnv, u32) -> CellResult<u32> {
        match self {
            Kernel::Gray => native_gray,
            Kernel::Hist => native_hist,
            Kernel::Jacobi => native_jacobi,
        }
    }
}

#[derive(Debug, Clone)]
struct Job {
    kernel: Kernel,
    input: Vec<u8>,
    count: u32,
    param: u32,
    out_len: usize,
}

fn jobs(seed: u64) -> Vec<Job> {
    let mut rng = SplitMix64::new(seed ^ 0x15A_0B5E_ED00);
    (0..POOL)
        .map(|i| match KERNELS[i % KERNELS.len()] {
            Kernel::Gray => Job {
                kernel: Kernel::Gray,
                input: (0..GRAY_PIXELS * 4).map(|_| rng.next_u64() as u8).collect(),
                count: GRAY_PIXELS,
                param: 0,
                out_len: GRAY_PIXELS as usize * 4,
            },
            Kernel::Hist => Job {
                kernel: Kernel::Hist,
                input: (0..HIST_INDICES)
                    .map(|_| (rng.next_u64() % HIST_USED_BINS) as u8)
                    .collect(),
                count: HIST_INDICES,
                param: 0,
                out_len: HIST_BINS * 4,
            },
            Kernel::Jacobi => Job {
                kernel: Kernel::Jacobi,
                input: (0..JACOBI_W * JACOBI_H)
                    .flat_map(|_| ((rng.next_u64() % 10_000) as f32 / 100.0).to_le_bytes())
                    .collect(),
                count: JACOBI_W * JACOBI_H,
                param: JACOBI_W | (JACOBI_H << 16),
                out_len: (JACOBI_W * JACOBI_H) as usize * 4,
            },
        })
        .collect()
}

/// Place each job's input, output region and header in main memory;
/// returns `(header_ea, out_ea)` per job.
fn stage(mem: &MainMemory, jobs: &[Job]) -> CellResult<Vec<(u64, u64)>> {
    let mut staged = Vec::with_capacity(jobs.len());
    for job in jobs {
        let in_ea = mem.alloc(job.input.len(), 16)?;
        mem.write(in_ea, &job.input)?;
        let out_ea = mem.alloc_zeroed(job.out_len, 16)?;
        let hdr_ea = mem.alloc(16, 16)?;
        write_header(
            mem,
            hdr_ea,
            KernelHeader {
                in_ea: u32::try_from(in_ea).expect("small machine EAs fit a word"),
                out_ea: u32::try_from(out_ea).expect("small machine EAs fit a word"),
                count: job.count,
                param: job.param,
            },
        )?;
        staged.push((hdr_ea, out_ea));
    }
    Ok(staged)
}

/// Which backend the dispatchers register the three kernels with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Isa,
    Native,
}

/// The system under test: two SPEs, each running a dispatcher with the
/// three kernels plus a trivial `noop` slot, behind one engine.
struct System {
    ppe: Ppe,
    handles: Vec<SpeHandle>,
    engine: Engine,
    /// Dispatch opcode per kernel, in `KERNELS` order (same on each SPE).
    ops: [u32; 3],
    staged: Vec<(u64, u64)>,
    mem: Arc<MainMemory>,
    // Dropped last: the handles above must be joined first.
    machine: CellMachine,
}

impl System {
    /// Build the machine, stage the jobs, assemble and register the
    /// images, spawn both dispatchers and dispatch one `noop` to each,
    /// which uploads the images into the local stores.
    fn build(
        jobs: &[Job],
        trace: TraceConfig,
        backend: Backend,
        sink: Option<&IsaTraceSink>,
    ) -> CellResult<System> {
        let mut machine = CellMachine::new(MachineConfig::small())?;
        machine.set_trace_config(trace);
        let mut ppe = machine.ppe();
        let mem = Arc::clone(machine.mem());
        let staged = stage(&mem, jobs)?;
        let mut handles = Vec::with_capacity(LANES);
        let mut ops = [0u32; 3];
        let mut noop = 0;
        for spe in 0..LANES {
            let mut d = KernelDispatcher::new("isa-jobs", ReplyMode::Polling);
            for (slot, kernel) in KERNELS.into_iter().enumerate() {
                ops[slot] = match backend {
                    Backend::Isa => d.register_image(kernel.name(), kernel.image()?),
                    Backend::Native => d.register(kernel.name(), kernel.native()),
                };
            }
            noop = d.register("noop", |_, v| Ok(v));
            if let Some(sink) = sink {
                d.set_isa_trace_sink(Arc::clone(sink));
            }
            handles.push(machine.spawn(spe, Box::new(d))?);
        }
        let mut engine = Engine::new(LANES).with_window(WINDOW);
        for spe in 0..LANES {
            let ticket = engine.submit_to_spe(&mut ppe, spe, "noop", noop, 0)?;
            engine.complete(&mut ppe, ticket)?;
        }
        Ok(System {
            ppe,
            handles,
            engine,
            ops,
            staged,
            mem,
            machine,
        })
    }

    fn op(&self, kernel: Kernel) -> u32 {
        self.ops[KERNELS
            .iter()
            .position(|k| *k == kernel)
            .expect("listed kernel")]
    }

    /// Run the jobs in `range` once, job `i` on SPE `i % 2`, keeping at
    /// most the engine window in flight per SPE. Returns the round's call
    /// record and each job's reply word.
    fn round(&mut self, jobs: &[Job], range: Range<usize>) -> CellResult<(Call, Vec<u32>)> {
        let mut inflight: VecDeque<(usize, cell_engine::Ticket)> = VecDeque::new();
        let mut replies = vec![0u32; jobs.len()];
        let sim0 = self.ppe.elapsed();
        let t0 = Instant::now();
        for i in range.clone() {
            if inflight.len() == LANES * WINDOW {
                let (done, ticket) = inflight.pop_front().expect("window is full");
                replies[done] = self.engine.complete(&mut self.ppe, ticket)?;
            }
            let hdr = u32::try_from(self.staged[i].0).expect("small machine EAs fit a word");
            let kernel = jobs[i].kernel;
            let op = self.op(kernel);
            let ticket =
                self.engine
                    .submit_to_spe(&mut self.ppe, i % LANES, kernel.name(), op, hdr)?;
            inflight.push_back((i, ticket));
        }
        while let Some((done, ticket)) = inflight.pop_front() {
            replies[done] = self.engine.complete(&mut self.ppe, ticket)?;
        }
        let call = Call {
            items: range.len() as u64,
            host_s: t0.elapsed().as_secs_f64(),
            sim_s: (self.ppe.elapsed() - sim0).seconds(),
        };
        Ok((call, replies[range].to_vec()))
    }

    /// Read the outputs of the jobs in `range`, then clear them so the
    /// next round's results are checked afresh.
    fn take_outputs(&self, jobs: &[Job], range: Range<usize>) -> CellResult<Vec<Vec<u8>>> {
        let mut outs = Vec::with_capacity(range.len());
        for i in range {
            let (len, out_ea) = (jobs[i].out_len, self.staged[i].1);
            let mut out = vec![0u8; len];
            self.mem.read(out_ea, &mut out)?;
            self.mem.fill(out_ea, 0, len)?;
            outs.push(out);
        }
        Ok(outs)
    }

    fn finish(mut self) -> CellResult<TraceReport> {
        self.engine.close(&mut self.ppe)?;
        let mut tracks = vec![self.ppe.take_trace()];
        for h in self.handles {
            tracks.push(h.join()?.trace);
        }
        tracks.push(self.machine.take_eib_trace());
        self.machine.shutdown();
        Ok(TraceReport { tracks })
    }
}

/// Each job's output from the native twins, computed once, untimed.
fn native_outputs(jobs: &[Job]) -> CellResult<Vec<Vec<u8>>> {
    let mut sys = System::build(jobs, TraceConfig::Off, Backend::Native, None)?;
    let (_, replies) = sys.round(jobs, 0..POOL)?;
    assert!(
        replies.iter().zip(jobs).all(|(r, j)| *r == j.count),
        "native twins reply with their job's count"
    );
    let outs = sys.take_outputs(jobs, 0..POOL)?;
    sys.finish()?;
    Ok(outs)
}

/// Run rounds for `seconds`, and on to the end of a pass over the whole
/// pool, so per-job counts always average the same jobs. Every output
/// is checked against the native twins between rounds (outside the
/// timer).
fn drive(
    sys: &mut System,
    jobs: &[Job],
    expected: &[Vec<u8>],
    seconds: f64,
    spans: &mut Spans,
    parent: SpanId,
    failures: &mut Failures,
) -> CellResult<Phase> {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut round = 0usize;
    while start.elapsed().as_secs_f64() < seconds || !(round * ROUND).is_multiple_of(POOL) {
        let first = (round * ROUND) % POOL;
        let range = first..first + ROUND;
        let span = spans.open("call.round", parent, Some(round as u64));
        let result = sys.round(jobs, range.clone());
        spans.close(span);
        let (call, replies) = match result {
            Ok(r) => r,
            Err(e) => {
                failures.errors += ROUND as u64;
                phase.calls.push(Call {
                    items: ROUND as u64,
                    host_s: 0.0,
                    sim_s: 0.0,
                });
                eprintln!("isa_jobs: round {round} failed: {e}");
                break;
            }
        };
        phase.calls.push(call);
        phase.latencies_s.push(call.host_s);
        let verify = spans.open("verify", parent, Some(round as u64));
        let outs = sys.take_outputs(jobs, range)?;
        let wrong = (0..ROUND)
            .filter(|&j| outs[j] != expected[first + j] || replies[j] != jobs[first + j].count)
            .count();
        failures.mismatches += wrong as u64;
        spans.close(verify);
        round += 1;
    }
    Ok(phase)
}

pub fn run(args: &Args, spans: &mut Spans) -> CellResult<Outcome> {
    let jobs = jobs(args.seed);
    let expected = native_outputs(&jobs)?;
    let mut out = Outcome::default();
    let root = spans.open("isa_jobs", None, None);
    let setup_s = setup_seconds(
        spans,
        root,
        || System::build(&jobs, TraceConfig::Off, Backend::Isa, None),
        |sys| sys.finish().map(drop),
    )?;
    if !args.trace {
        let mut sys = System::build(&jobs, TraceConfig::Off, Backend::Isa, None)?;
        let phase = drive(
            &mut sys,
            &jobs,
            &expected,
            args.seconds,
            spans,
            root,
            &mut out.failures,
        )?;
        sys.finish()?;
        out.attempted = phase.items();
        phase.report(&mut out);
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", crate::report::peak_rss_mb());
        spans.close(root);
        return Ok(out);
    }

    let half = args.seconds / 2.0;
    let untraced_span = spans.open("phase.untraced", root, None);
    let mut sys = System::build(&jobs, TraceConfig::Off, Backend::Isa, None)?;
    let untraced = drive(
        &mut sys,
        &jobs,
        &expected,
        half,
        spans,
        untraced_span,
        &mut out.failures,
    )?;
    spans.scope("finish", untraced_span, None, |_| sys.finish())?;
    spans.close(untraced_span);

    let traced_span = spans.open("phase.traced", root, None);
    let sink: IsaTraceSink = Arc::new(Mutex::new(ExecTrace::default()));
    let mut sys = System::build(&jobs, TraceConfig::Counters, Backend::Isa, Some(&sink))?;
    let traced = drive(
        &mut sys,
        &jobs,
        &expected,
        half,
        spans,
        traced_span,
        &mut out.failures,
    )?;
    let trace = spans.scope("finish", traced_span, None, |_| sys.finish())?;
    spans.close(traced_span);
    let items = traced.items();
    out.attempted = untraced.items() + items;
    machine_counters(&trace, items, &mut out);
    let exec = sink
        .lock()
        .expect("no SPE thread panicked holding the sink")
        .clone();
    out.set(
        "cell-isa.instructions_per_item",
        per_item(exec.instructions as f64, items),
    );
    out.set(
        "cell-isa.sim_cycles_per_item",
        per_item(exec.cycles as f64, items),
    );
    out.set(
        "cell-isa.dual_issue_rate",
        per_item(exec.dual_issues as f64, exec.instructions),
    );
    out.note(format!(
        "isa: {} instructions over {items} jobs (traced half)",
        exec.instructions
    ));

    let replay = spans.open("replay", root, None);
    let interp = replay_interpreter(&jobs, &expected, spans, replay)?;
    let payloads: Vec<&[u8]> = jobs.iter().map(|j| j.input.as_slice()).collect();
    let copy_us_per_mib = copy_host_us_per_mib(&payloads, 20, spans, replay)?;
    let roundtrip_us = roundtrip_host_us(200, spans, replay)?;
    spans.close(replay);
    out.failures.mismatches += interp.mismatches;
    out.set("cell-isa.host_ns_per_inst", interp.ns_per_inst);
    out.set("cell-isa.native_ratio", interp.native_ratio);
    out.set("cell-mem.copy_host_us_per_mib", copy_us_per_mib);
    out.set("cell-engine.roundtrip_host_us", roundtrip_us);

    // Per job: its interpreted body (DMA in and out included) and one
    // engine round trip.
    finish_attribution(
        &untraced,
        &traced,
        interp.us_per_job + roundtrip_us,
        &mut out,
    );
    spans.close(root);
    Ok(out)
}

struct InterpreterReplay {
    ns_per_inst: f64,
    native_ratio: f64,
    us_per_job: f64,
    mismatches: u64,
}

/// Rounds of the job pool replayed in the interpreter and its native
/// twin, back to back on one SPE.
const REPLAY_ROUNDS: usize = 2;

/// Time `IsaProgram` against the native twin on each job of the pool,
/// inside one SPE thread so neither includes a thread spawn.
fn replay_interpreter(
    jobs: &[Job],
    expected: &[Vec<u8>],
    spans: &mut Spans,
    parent: SpanId,
) -> CellResult<InterpreterReplay> {
    struct Sample {
        job: usize,
        interp: (Instant, Instant),
        native: (Instant, Instant),
        instructions: u64,
        interp_out: Vec<u8>,
    }
    let mut m = CellMachine::new(MachineConfig::small())?;
    let mem = Arc::clone(m.mem());
    let staged = stage(&mem, jobs)?;
    let plan: Vec<(Kernel, u32, u64, usize)> = jobs
        .iter()
        .zip(&staged)
        .map(|(j, &(hdr, out))| {
            let hdr = u32::try_from(hdr).expect("small machine EAs fit a word");
            (j.kernel, hdr, out, j.out_len)
        })
        .collect();
    let images: Vec<IsaImage> = KERNELS
        .iter()
        .map(|k| k.image())
        .collect::<CellResult<_>>()?;
    let samples: Arc<Mutex<Vec<Sample>>> = Arc::default();
    let sink_samples = Arc::clone(&samples);
    let replay_mem = Arc::clone(&mem);
    let program = move |env: &mut SpeEnv| -> CellResult<()> {
        for _ in 0..REPLAY_ROUNDS {
            for (job, &(kernel, hdr, out_ea, out_len)) in plan.iter().enumerate() {
                let slot = KERNELS.iter().position(|k| *k == kernel).expect("listed");
                let sink: TraceSink = Arc::new(Mutex::new(None));
                let mut program = IsaProgram::new(images[slot].clone())
                    .with_arg(hdr)
                    .with_trace_sink(Arc::clone(&sink));
                env.ls.reset();
                let t0 = Instant::now();
                program.run(env)?;
                let t1 = Instant::now();
                let mut interp_out = vec![0u8; out_len];
                replay_mem.read(out_ea, &mut interp_out)?;
                env.ls.reset();
                let t2 = Instant::now();
                (kernel.native())(env, hdr)?;
                let t3 = Instant::now();
                let instructions = sink
                    .lock()
                    .expect("trace sink is only used on this thread")
                    .take()
                    .map_or(0, |t| t.instructions);
                sink_samples
                    .lock()
                    .expect("samples are only used on this thread")
                    .push(Sample {
                        job,
                        interp: (t0, t1),
                        native: (t2, t3),
                        instructions,
                        interp_out,
                    });
            }
        }
        Ok(())
    };
    let h = m.spawn(0, Box::new(program))?;
    h.join()?;
    m.shutdown();

    let samples = std::mem::take(&mut *samples.lock().expect("SPE thread joined"));
    let (mut interp_s, mut native_s, mut insts, mut mismatches) = (0.0, 0.0, 0u64, 0u64);
    for s in &samples {
        spans.record("replay.isa_program", parent, Some(s.job as u64), s.interp);
        spans.record("replay.native_twin", parent, Some(s.job as u64), s.native);
        interp_s += (s.interp.1 - s.interp.0).as_secs_f64();
        native_s += (s.native.1 - s.native.0).as_secs_f64();
        insts += s.instructions;
        if s.interp_out != expected[s.job] {
            mismatches += 1;
        }
    }
    Ok(InterpreterReplay {
        ns_per_inst: per_item(interp_s * 1e9, insts),
        native_ratio: if native_s > 0.0 {
            interp_s / native_s
        } else {
            0.0
        },
        us_per_job: per_item(interp_s * 1e6, samples.len() as u64),
        mismatches,
    })
}
