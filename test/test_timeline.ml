(* The span timeline and the profile fold built on it: live recording
   through drain into a sink, [timed], self-time charging of nested
   spans, the profile's invariants (utilization bounds, critical path),
   unknown-kind and malformed-self triage, renderer determinism, and the
   zero-cost-when-off guarantee. *)

(* substring search, to keep the test deps at alcotest alone *)
let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let span_line ~domain ~kind ~t0 ~t1 ~self =
  Obs.Json.to_string
    (Obs.Event.to_json ~t:0.0 (Obs.Event.Span { domain; kind; t0; t1; self }))

(* (domain, kind, t0, t1, self) in the exclusive form the timeline
   records: a span's self is its extent minus its children's extents *)
let fold_of_spans spans =
  Obs.Fold.of_lines
    (List.map
       (fun (domain, kind, t0, t1, self) -> span_line ~domain ~kind ~t0 ~t1 ~self)
       spans)

let fold_buffer buf = Obs.Fold.of_lines (String.split_on_char '\n' (Buffer.contents buf))

let extent (s : Obs.Fold.span) = s.Obs.Fold.sp_t1 - s.Obs.Fold.sp_t0

(* Record through the real machinery: enable, nest spans, drain into a
   buffer sink, fold the JSONL back. *)
let test_live_roundtrip () =
  let buf = Buffer.create 1024 in
  Obs.Sink.with_sink (Obs.Sink.Buffer_sink buf) (fun () ->
      Obs.Timeline.enable ();
      Fun.protect ~finally:Obs.Timeline.disable (fun () ->
          let got =
            Obs.Timeline.span "exec" (fun () ->
                Obs.Timeline.span "solve" (fun () -> 41 + 1))
          in
          Alcotest.(check int) "span returns the result" 42 got;
          Obs.Timeline.record ~kind:"idle" ~t0:1 ~t1:5;
          Alcotest.(check bool) "spans pending before drain" true
            (Obs.Timeline.pending () >= 3);
          Obs.Timeline.drain ();
          Alcotest.(check int) "drained" 0 (Obs.Timeline.pending ())));
  let f = fold_buffer buf in
  let spans = f.Obs.Fold.spans in
  Alcotest.(check int) "three spans folded" 3 (List.length spans);
  let find kind = List.find (fun s -> s.Obs.Fold.sp_kind = kind) spans in
  let outer = find "exec" and inner = find "solve" in
  Alcotest.(check bool) "inner nests inside outer" true
    (outer.Obs.Fold.sp_t0 <= inner.Obs.Fold.sp_t0
    && inner.Obs.Fold.sp_t1 <= outer.Obs.Fold.sp_t1);
  Alcotest.(check int) "main domain" 0 outer.Obs.Fold.sp_domain;
  Alcotest.(check bool) "monotone span" true
    (inner.Obs.Fold.sp_t0 <= inner.Obs.Fold.sp_t1)

let record_live f =
  let buf = Buffer.create 1024 in
  Obs.Sink.with_sink (Obs.Sink.Buffer_sink buf) (fun () ->
      Obs.Timeline.enable ();
      Fun.protect ~finally:Obs.Timeline.disable (fun () ->
          f ();
          Obs.Timeline.drain ()));
  let spans = (fold_buffer buf).Obs.Fold.spans in
  fun kind -> List.find (fun s -> s.Obs.Fold.sp_kind = kind) spans

(* Nested spans: each child charges its extent to its parent, so a
   parent's self plus its children's extents is its own extent, and
   the self times of a tree tile its root. *)
let test_nested_self () =
  let find =
    record_live (fun () ->
        Obs.Timeline.span "exec" (fun () ->
            Unix.sleepf 0.001;
            Obs.Timeline.span "schedule" (fun () -> Unix.sleepf 0.002);
            Obs.Timeline.span "pathlog" (fun () ->
                Obs.Timeline.span "solve" (fun () -> Unix.sleepf 0.001))))
  in
  let exec = find "exec" and sched = find "schedule" in
  let plog = find "pathlog" and solve = find "solve" in
  let self s = s.Obs.Fold.sp_self in
  Alcotest.(check int) "exec: self + children = extent" (extent exec)
    (self exec + extent sched + extent plog);
  Alcotest.(check int) "pathlog: self + child = extent" (extent plog)
    (self plog + extent solve);
  Alcotest.(check int) "leaves are all self" (extent sched) (self sched);
  Alcotest.(check int) "self times tile the root" (extent exec)
    (self exec + self sched + self plog + self solve);
  Alcotest.(check bool) "exec's own sleep is its self" true (self exec >= 1_000_000)

(* A [record] completed inside an open span is a leaf charged to that
   span, as the scheduler's per-run "rank" span charges "schedule". *)
let test_record_charges_enclosing () =
  let find =
    record_live (fun () ->
        Obs.Timeline.span "schedule" (fun () ->
            let t0 = Obs.Timeline.tick () in
            Unix.sleepf 0.002;
            Obs.Timeline.record ~kind:"rank" ~t0 ~t1:(Obs.Timeline.tick ());
            Unix.sleepf 0.001))
  in
  let sched = find "schedule" and rank = find "rank" in
  Alcotest.(check int) "record is all self" (extent rank) rank.Obs.Fold.sp_self;
  Alcotest.(check bool) "record ran 2 ms" true (extent rank >= 2_000_000);
  Alcotest.(check int) "schedule self excludes the record" (extent sched - extent rank)
    sched.Obs.Fold.sp_self

(* A span raised through must still be recorded and re-raised. *)
let test_span_exception_safe () =
  let buf = Buffer.create 256 in
  Obs.Sink.with_sink (Obs.Sink.Buffer_sink buf) (fun () ->
      Obs.Timeline.enable ();
      Fun.protect ~finally:Obs.Timeline.disable (fun () ->
          (try Obs.Timeline.span "exec" (fun () -> failwith "boom")
           with Failure _ -> ());
          Obs.Timeline.drain ()));
  let f = fold_buffer buf in
  Alcotest.(check int) "raising span still recorded" 1
    (List.length f.Obs.Fold.spans)

(* [timed] returns the elapsed seconds whether or not the timeline is
   on, and records exactly one span when on (also when [f] raises) and
   none when off. *)
let test_timed () =
  Alcotest.(check bool) "timeline off" false (Obs.Timeline.on ());
  let before = Obs.Timeline.pending () in
  let v, dt = Obs.Timeline.timed "solve" (fun () -> 41 + 1) in
  Alcotest.(check int) "result returned when off" 42 v;
  Alcotest.(check bool) "non-negative seconds when off" true (dt >= 0.0);
  Alcotest.(check int) "nothing recorded when off" before (Obs.Timeline.pending ());
  let buf = Buffer.create 256 in
  Obs.Sink.with_sink (Obs.Sink.Buffer_sink buf) (fun () ->
      Obs.Timeline.enable ();
      Fun.protect ~finally:Obs.Timeline.disable (fun () ->
          let v, dt = Obs.Timeline.timed "solve" (fun () -> "ok") in
          Alcotest.(check string) "result returned when on" "ok" v;
          Alcotest.(check bool) "non-negative seconds when on" true (dt >= 0.0);
          Alcotest.(check int) "one span when on" 1 (Obs.Timeline.pending ());
          (try ignore (Obs.Timeline.timed "compile" (fun () -> failwith "boom"))
           with Failure _ -> ());
          Alcotest.(check int) "raising f still records" 2 (Obs.Timeline.pending ());
          Obs.Timeline.drain ()));
  let f = fold_buffer buf in
  Alcotest.(check (list string)) "span kinds" [ "solve"; "compile" ]
    (List.map (fun s -> s.Obs.Fold.sp_kind) f.Obs.Fold.spans)

let test_unknown_kind_skipped () =
  let f =
    fold_of_spans
      [
        (0, "exec", 0, 100, 100);
        (0, "mystery.v9", 10, 20, 10);
        (0, "mystery.v9", 30, 40, 10);
        (1, "idle", 0, 80, 80);
        (* kinds of older engines are no longer produced *)
        (0, "barrier", 40, 60, 20);
        (1, "cache.lock.wait", 10, 15, 5);
        (0, "compiled", 0, 50, 50);
        (0, "inflight", 0, 90, 90);
      ]
  in
  let p = Obs.Fold.profile f in
  Alcotest.(check int) "known spans counted" 2 p.Obs.Fold.pf_spans;
  Alcotest.(check (list (pair string int)))
    "unknown kind skipped and counted"
    [ ("barrier", 1); ("cache.lock.wait", 1); ("compiled", 1); ("inflight", 1); ("mystery.v9", 2) ]
    p.Obs.Fold.pf_unknown;
  (* skip note must surface in the text rendering *)
  let txt = Obs.Fold.profile_text f in
  Alcotest.(check bool) "skip note rendered" true
    (contains ~affix:"mystery.v9" txt)

let test_utilization_bounds () =
  let f =
    fold_of_spans
      [
        (* exec [0,150] with a schedule and a queue wait nested in it *)
        (0, "exec", 0, 150, 50);
        (0, "schedule", 20, 80, 60);
        (0, "queue.wait", 80, 120, 40);
        (* a worker that only waited *)
        (1, "idle", 0, 150, 150);
      ]
  in
  let p = Obs.Fold.profile f in
  Alcotest.(check int) "wall is the global extent" 150 p.Obs.Fold.pf_wall_ns;
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d utilization <= 1" d.Obs.Fold.dp_domain)
        true
        (d.Obs.Fold.dp_util >= 0.0 && d.Obs.Fold.dp_util <= 1.0))
    p.Obs.Fold.pf_domains;
  let d0 = List.find (fun d -> d.Obs.Fold.dp_domain = 0) p.Obs.Fold.pf_domains in
  Alcotest.(check int) "busy is the busy kinds' summed self" 110 d0.Obs.Fold.dp_busy_ns;
  Alcotest.(check int) "wait accounted" 40 d0.Obs.Fold.dp_wait_ns;
  Alcotest.(check int) "busy + wait is the domain's extent" 150
    (d0.Obs.Fold.dp_busy_ns + d0.Obs.Fold.dp_wait_ns);
  Alcotest.(check (list (pair string (pair int int)))) "per-kind self totals"
    [ ("idle", (1, 150)); ("schedule", (1, 60)); ("exec", (1, 50)); ("queue.wait", (1, 40)) ]
    p.Obs.Fold.pf_kinds;
  let d1 = List.find (fun d -> d.Obs.Fold.dp_domain = 1) p.Obs.Fold.pf_domains in
  Alcotest.(check int) "pure-wait domain has no busy" 0 d1.Obs.Fold.dp_busy_ns

(* A round's critical path is the busiest domain's self time among the
   spans that begin in the round; a round's own self time is main-domain
   plumbing and counts, its queue wait does not. *)
let test_round_critical_path () =
  let f =
    fold_of_spans
      [
        (0, "round", 0, 1000, 0);
        (0, "queue.wait", 0, 600, 600);
        (0, "merge", 600, 1000, 400);
        (1, "task", 0, 600, 600);
        (1, "idle", 600, 1000, 400);
        (2, "task", 100, 400, 300);
      ]
  in
  let p = Obs.Fold.profile f in
  (match p.Obs.Fold.pf_rounds with
  | [ r ] ->
    Alcotest.(check int) "round wall" 1000 r.Obs.Fold.rp_wall_ns;
    Alcotest.(check int) "critical path is the busiest domain" 600
      r.Obs.Fold.rp_crit_ns;
    Alcotest.(check int) "carried by domain 1" 1 r.Obs.Fold.rp_crit_domain;
    Alcotest.(check int) "stall is the unhideable remainder" 400
      r.Obs.Fold.rp_stall_ns
  | rs -> Alcotest.failf "expected 1 round, got %d" (List.length rs));
  (* domain 0's self times tile its whole extent *)
  Alcotest.(check (float 0.01)) "full attribution" 100.0
    p.Obs.Fold.pf_attributed_pct

(* A span line without [self], or with [self] outside [0, t1 - t0], is
   malformed: skipped and counted, never folded. *)
let test_malformed_self_skipped () =
  let good = span_line ~domain:0 ~kind:"exec" ~t0:0 ~t1:100 ~self:100 in
  let f =
    Obs.Fold.of_lines
      [
        good;
        {|{"ev":"span","t":0.0,"domain":0,"kind":"exec","t0":0,"t1":100}|};
        span_line ~domain:0 ~kind:"exec" ~t0:0 ~t1:100 ~self:(-1);
        span_line ~domain:0 ~kind:"exec" ~t0:0 ~t1:100 ~self:101;
      ]
  in
  Alcotest.(check int) "three malformed lines counted" 3 f.Obs.Fold.malformed;
  Alcotest.(check int) "the valid span folded" 1 (List.length f.Obs.Fold.spans);
  Alcotest.(check int) "profile sums only the valid span" 100
    (Obs.Fold.profile f).Obs.Fold.pf_wall_ns

let test_profile_renderers_deterministic () =
  let spans =
    [
      (0, "round", 0, 900, 20);
      (0, "dispatch", 0, 100, 100);
      (0, "queue.wait", 100, 480, 380);
      (0, "merge", 500, 900, 380);
      (0, "strategy", 600, 620, 20);
      (1, "task", 120, 470, 20);
      (1, "exec", 130, 460, 20);
      (1, "schedule", 140, 450, 110);
      (1, "rank", 250, 450, 200);
      (1, "cache.probe", 470, 475, 5);
      (1, "idle", 480, 900, 420);
    ]
  in
  let f = fold_of_spans spans in
  let t1 = Obs.Fold.profile_text ~stable:true f in
  let t2 = Obs.Fold.profile_text ~stable:true f in
  Alcotest.(check string) "stable text is byte-identical" t1 t2;
  let h1 = Obs.Fold.profile_html ~stable:true f in
  let h2 = Obs.Fold.profile_html ~stable:true f in
  Alcotest.(check string) "stable html is byte-identical" h1 h2;
  (* stable text never contains raw second values *)
  Alcotest.(check bool) "no raw seconds under --stable" false
    (contains ~affix:"0.000s" t1);
  (* the diagnostic vocabulary the CI smoke greps for *)
  List.iter
    (fun phrase ->
      Alcotest.(check bool) (phrase ^ " present") true
        (contains ~affix:phrase t1))
    [ "per-worker utilization"; "pipeline queue wait"; "worker idle"; "cache probes" ];
  List.iter
    (fun affix ->
      Alcotest.(check bool) (affix ^ " in html") true
        (contains ~affix h1))
    [ "<svg"; "</html>"; "Per-worker utilization" ]

(* With the timeline off, span/record must not touch the minor heap —
   the instrumented hot paths run at full speed in untraced campaigns. *)
let test_zero_alloc_when_off () =
  Alcotest.(check bool) "timeline off" false (Obs.Timeline.on ());
  let f = Sys.opaque_identity (fun () -> ()) in
  (* warm both paths so any one-time setup is done *)
  Obs.Timeline.span "warm" f;
  Obs.Timeline.record ~kind:"warm" ~t0:0 ~t1:0;
  let w0 = Gc.minor_words () in
  for _ = 1 to 50_000 do
    Obs.Timeline.span "bench" f;
    Obs.Timeline.record ~kind:"bench" ~t0:0 ~t1:0
  done;
  let dw = Gc.minor_words () -. w0 in
  (* the Gc.minor_words brackets box a couple of floats; the loop body
     itself must contribute nothing *)
  Alcotest.(check bool)
    (Printf.sprintf "no allocation on the disabled path (%.0f words)" dw)
    true (dw < 256.0)

(* End to end: a real jobs-2 campaign traced through a buffer sink.
   Self times are exclusive, so each domain's per-kind totals add up to
   its busy + wait time, no kind on a domain exceeds the wall, and the
   executor spans that stayed open across fiber suspensions are gone.
   susy-hmc spends much of each domain's time in rank compute, so a
   "rank" record longer than its resumes would outgrow the extent. *)
let test_live_campaign_profile () =
  let info = Targets.Registry.instrument (Targets.Catalog.find_exn "susy-hmc") in
  let settings =
    {
      Compi.Campaign.default_settings with
      Compi.Campaign.base =
        {
          Compi.Driver.default_settings with
          Compi.Driver.iterations = 30;
          dfs_phase_iters = 12;
          initial_nprocs = 2;
          seed = 11;
        };
      jobs = 2;
      solver_cache = true;
    }
  in
  let buf = Buffer.create 65536 in
  Obs.Sink.with_sink (Obs.Sink.Buffer_sink buf) (fun () ->
      ignore (Compi.Campaign.run ~settings info));
  Alcotest.(check bool) "campaign released the timeline" false (Obs.Timeline.on ());
  let f = fold_buffer buf in
  Alcotest.(check int) "no malformed span" 0 f.Obs.Fold.malformed;
  let p = Obs.Fold.profile f in
  Alcotest.(check bool) "spans recorded" true (p.Obs.Fold.pf_spans > 0);
  Alcotest.(check int) "both domains present" 2 (List.length p.Obs.Fold.pf_domains);
  Alcotest.(check bool)
    (Printf.sprintf "attribution >= 95%% (got %.1f)" p.Obs.Fold.pf_attributed_pct)
    true
    (p.Obs.Fold.pf_attributed_pct >= 95.0);
  let kinds_of d =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun s ->
        if s.Obs.Fold.sp_domain = d then
          Hashtbl.replace tbl s.Obs.Fold.sp_kind
            (s.Obs.Fold.sp_self
            + Option.value (Hashtbl.find_opt tbl s.Obs.Fold.sp_kind) ~default:0))
      f.Obs.Fold.spans;
    Hashtbl.fold (fun k ns acc -> (k, ns) :: acc) tbl []
  in
  (* first begin and last end of the domain's spans *)
  let extent_of d =
    let t0, t1 =
      List.fold_left
        (fun (t0, t1) s ->
          if s.Obs.Fold.sp_domain = d then (min t0 s.Obs.Fold.sp_t0, max t1 s.Obs.Fold.sp_t1)
          else (t0, t1))
        (max_int, min_int) f.Obs.Fold.spans
    in
    t1 - t0
  in
  List.iter
    (fun d ->
      let dom = d.Obs.Fold.dp_domain in
      let kinds = kinds_of dom in
      let total = List.fold_left (fun acc (_, ns) -> acc + ns) 0 kinds in
      let bw = d.Obs.Fold.dp_busy_ns + d.Obs.Fold.dp_wait_ns in
      Alcotest.(check bool)
        (Printf.sprintf "domain %d: kinds sum %d within 2%% of busy + wait %d" dom total bw)
        true
        (float_of_int (abs (total - bw)) <= 0.02 *. float_of_int bw);
      (* self times are disjoint slices of the domain's time, so they
         cannot outgrow its extent: an over-long "rank" record or a span
         opened inside a fiber would *)
      let ext = extent_of dom in
      Alcotest.(check bool)
        (Printf.sprintf "domain %d: summed self %d within 1.02 x extent %d" dom total ext)
        true
        (float_of_int total <= 1.02 *. float_of_int ext);
      List.iter
        (fun (k, ns) ->
          if ns > p.Obs.Fold.pf_wall_ns then
            Alcotest.failf "domain %d: kind %s self %d exceeds wall %d" dom k ns
              p.Obs.Fold.pf_wall_ns)
        kinds;
      Alcotest.(check bool) "live utilization <= 1" true (d.Obs.Fold.dp_util <= 1.0))
    p.Obs.Fold.pf_domains;
  let present k = List.mem_assoc k p.Obs.Fold.pf_kinds in
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " present") true (present k))
    [ "rank"; "schedule"; "pathlog" ];
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " absent") false (present k))
    [ "interp"; "compiled"; "inflight" ];
  Alcotest.(check bool) "rounds profiled" true (p.Obs.Fold.pf_rounds <> []);
  Alcotest.(check bool) "cache probed" true (fst (Obs.Fold.kind_self p "cache.probe") > 0);
  let txt = Obs.Fold.profile_text f in
  List.iter
    (fun phrase ->
      Alcotest.(check bool) (phrase ^ " present") true
        (contains ~affix:phrase txt))
    [ "per-worker utilization"; "pipeline queue wait"; "worker idle"; "cache probes" ]

let suite =
  [
    ( "timeline",
      [
        Alcotest.test_case "live record/drain round-trip" `Quick test_live_roundtrip;
        Alcotest.test_case "nested spans tile the parent" `Quick test_nested_self;
        Alcotest.test_case "record charges the enclosing span" `Quick
          test_record_charges_enclosing;
        Alcotest.test_case "span is exception-safe" `Quick test_span_exception_safe;
        Alcotest.test_case "timed records one span and returns seconds" `Quick
          test_timed;
        Alcotest.test_case "unknown span kinds skipped+counted" `Quick
          test_unknown_kind_skipped;
        Alcotest.test_case "utilization is summed self time" `Quick
          test_utilization_bounds;
        Alcotest.test_case "malformed span self skipped+counted" `Quick
          test_malformed_self_skipped;
        Alcotest.test_case "round critical path and stall" `Quick
          test_round_critical_path;
        Alcotest.test_case "profile renderers deterministic" `Quick
          test_profile_renderers_deterministic;
        Alcotest.test_case "zero allocation when off" `Quick test_zero_alloc_when_off;
        Alcotest.test_case "live jobs-2 campaign profile" `Quick
          test_live_campaign_profile;
      ] );
  ]
