(* Self-tests for the benchmark's own arithmetic and checks. They run
   at the start of every benchmark run and under [dune runtest]. *)

let failures = ref 0

let expect name cond =
  if not cond then begin
    incr failures;
    Printf.eprintf "selftest FAILED: %s\n%!" name
  end

let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

(* root [0,10] holds A [1,4] (which holds G [2,3]) and B [5,9]; a
   second root C [20,21] overlaps nothing. *)
let nested_self_time () =
  let r = Spans.create () in
  let root = Spans.add r ~kind:"root" ~item:0 ~parent:(-1) ~t0:0.0 ~t1:10.0 in
  let a = Spans.add r ~kind:"a" ~item:0 ~parent:root ~t0:1.0 ~t1:4.0 in
  let _g = Spans.add r ~kind:"g" ~item:0 ~parent:a ~t0:2.0 ~t1:3.0 in
  let _b = Spans.add r ~kind:"b" ~item:1 ~parent:root ~t0:5.0 ~t1:9.0 in
  let _c = Spans.add r ~kind:"c" ~item:2 ~parent:(-1) ~t0:20.0 ~t1:21.0 in
  let self = Spans.self_times r in
  expect "root self = 10 - 3 - 4" (close self.(0) 3.0);
  expect "a self = 3 - 1" (close self.(1) 2.0);
  expect "leaf self = duration" (close self.(2) 1.0 && close self.(3) 4.0);
  expect "self times add up to the roots' durations" (close (Spans.total_self r) 11.0);
  let tot = Spans.totals r in
  expect "per-kind totals" ((tot "a").Spans.calls = 1 && close (tot "a").Spans.self_s 2.0);
  expect "absent kind" ((tot "none").Spans.calls = 0);
  (* overlapping and out-of-bounds children are counted once, clipped *)
  expect "union of overlapping children"
    (close (Spans.covered ~lo:0.0 ~hi:10.0 [ (1.0, 5.0); (4.0, 6.0); (9.0, 12.0) ]) 6.0)

let recorded_spans () =
  let r = Spans.create () in
  Spans.set_item r 7;
  let v = Spans.span r "outer" (fun () -> Spans.span r "inner" (fun () -> 42)) in
  expect "span returns its value" (v = 42);
  expect "inner's parent is outer" (Spans.length r = 2 && Spans.parent r 1 = 0 && Spans.parent r 0 = -1);
  (match Spans.span r "raises" (fun () -> failwith "boom") with
  | () -> expect "exception propagates" false
  | exception Failure _ -> ());
  expect "a raising span is closed" (Spans.parent r 2 = -1);
  (* grow past the initial capacity *)
  for _ = 1 to 3000 do
    Spans.span r "many" ignore
  done;
  expect "buffers grow" ((Spans.totals r "many").Spans.calls = 3000)

let percentiles () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  expect "median of odd count" (close (Stats.median [ 3.0; 1.0; 2.0 ]) 2.0);
  expect "median of even count" (close (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]) 2.5);
  let t = Stats.tail_percentile ~wanted:0.99 (xs 1000) in
  expect "p99 over 1000 samples is quoted" ((not (Stats.relabelled t)) && t.Stats.samples = 1000);
  expect "p99 value" (close t.Stats.value 990.01);
  let t = Stats.tail_percentile ~wanted:0.99 (xs 999) in
  expect "p99 over 999 samples is relabelled" (Stats.relabelled t && t.Stats.quoted < 0.99);
  expect "relabelled percentile keeps ten samples beyond it"
    (close ~eps:1e-6 ((1.0 -. t.Stats.quoted) *. 999.0) 10.0);
  expect "label names the sample count"
    (let l = Stats.label t in
     String.length l > 0 && Option.is_some (String.index_opt l 'n'));
  let t = Stats.tail_percentile ~wanted:0.99 (xs 5) in
  expect "tiny samples fall back to the median" (close t.Stats.quoted 0.5 && close t.Stats.value 3.0)

(* A real (small) campaign's report must match itself and be rejected
   once the reference is doctored. *)
let doctored_reference () =
  let reg = Targets.Catalog.find_exn "toy-fig2" in
  let info = Targets.Registry.instrument reg in
  let settings =
    {
      Compi.Campaign.default_settings with
      Compi.Campaign.base = { Compi.Driver.default_settings with Compi.Driver.iterations = 40; seed = 3 };
    }
  in
  let r = Compi.Campaign.run ~settings ~label:"toy-fig2" info in
  let good = Checks.render r in
  expect "report matches itself" (Checks.against_reference ~reference:good r = None);
  let doctor s =
    (* change the first digit *)
    let b = Bytes.of_string s in
    let i = ref 0 in
    while !i < Bytes.length b && not (Bytes.get b !i >= '0' && Bytes.get b !i <= '9') do incr i done;
    if !i < Bytes.length b then Bytes.set b !i (if Bytes.get b !i = '9' then '0' else '9');
    Bytes.to_string b
  in
  expect "doctored count is rejected" (Checks.against_reference ~reference:(doctor good) r <> None);
  expect "extra bug key is rejected"
    (Checks.against_reference ~reference:(good ^ "segfault:main:a\n") r <> None);
  expect "truncated reference is rejected"
    (Checks.against_reference ~reference:(String.sub good 0 (String.length good / 2)) r <> None)

(* The light replay's two clocks are exclusive and cover its wall. *)
let replay_split () =
  let reg = Targets.Catalog.find_exn "toy-fig2" in
  let info = Targets.Registry.instrument reg in
  let cfg =
    {
      (Compi.Runner.default_config ~info) with
      Compi.Runner.nprocs = 4;
      compiled = Compi.Runner.prepare Compi.Runner.Exec_compiled info;
    }
  in
  let s = Probe.light_replay (List.init 20 (fun _ -> cfg)) in
  expect "replay ran every rank" (s.Probe.rank_runs = 80);
  expect "replay made MPI calls" (s.Probe.mpi_calls > 0);
  expect "rank and simulator clocks alternate" (s.Probe.misordered = 0);
  expect "compute + simulator = replay wall"
    (close ~eps:1e-9 (s.Probe.rank_compute_s +. s.Probe.sim_s) s.Probe.wall_s)

let run () =
  failures := 0;
  nested_self_time ();
  recorded_spans ();
  percentiles ();
  doctored_reference ();
  replay_split ();
  !failures = 0
