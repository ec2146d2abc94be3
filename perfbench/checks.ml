(* Output checks.

   Every campaign the benchmark times is checked against a committed
   reference: the canonical [Campaign.coverage_report] followed by the
   distinct bug keys, one per line. Any difference fails the campaign.
   The hpl-live workload's live files are checked too: the final
   status snapshot, the checkpoint and the ledger record. *)

open Compi

let bug_keys (r : Campaign.result) =
  List.map Driver.bug_key (Driver.distinct_bugs r.Campaign.summary)

let separator = "--- distinct bug keys\n"

let render r =
  Campaign.coverage_report r ^ separator
  ^ String.concat "" (List.map (fun k -> k ^ "\n") (bug_keys r))

let reference_file ~dir (w : Workload.t) = Filename.concat dir (w.Workload.name ^ ".txt")

let read_file path =
  try Ok (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error e -> Error e

(* [None] when equal, otherwise a description of the first difference. *)
let diff ~expected ~actual =
  if String.equal expected actual then None
  else
    let e = String.split_on_char '\n' expected and a = String.split_on_char '\n' actual in
    let clip s = if String.length s > 120 then String.sub s 0 120 ^ "..." else s in
    let rec first i = function
      | x :: xs, y :: ys -> if String.equal x y then first (i + 1) (xs, ys) else Some (i, x, y)
      | x :: _, [] -> Some (i, x, "<end>")
      | [], y :: _ -> Some (i, "<end>", y)
      | [], [] -> None
    in
    match first 1 (e, a) with
    | Some (line, x, y) ->
      Some (Printf.sprintf "line %d: expected %S, got %S" line (clip x) (clip y))
    | None -> Some "texts differ"

let against_reference ~reference r = diff ~expected:reference ~actual:(render r)

(* hpl-live: what a watcher and a resumer would read back. *)
let live_files (files : Workload.live_files) ~budget (r : Campaign.result) =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  (match Obs.Status.read files.Workload.status with
  | Error e -> fail "status file unreadable: %s" e
  | Ok st ->
    if not st.Obs.Status.finished then fail "final status snapshot not finished";
    if st.Obs.Status.executed <> budget then
      fail "status executed %d, budget %d" st.Obs.Status.executed budget);
  (match Checkpoint.load ~dir:files.Workload.checkpoint with
  | Error e -> fail "checkpoint does not load: %s" (Checkpoint.error_to_string e)
  | Ok snap ->
    if snap.Checkpoint.ck_iter <> budget then
      fail "checkpoint at iteration %d, budget %d" snap.Checkpoint.ck_iter budget);
  (match Obs.Ledger.load files.Workload.ledger with
  | Error e -> fail "ledger unreadable: %s" e
  | Ok store -> (
    match Obs.Ledger.find store "-1" with
    | None -> fail "ledger has no record"
    | Some rec_ ->
      let s = r.Campaign.summary in
      if
        rec_.Obs.Ledger.executed <> s.Driver.iterations_run
        || rec_.Obs.Ledger.covered <> s.Driver.covered_branches
        || List.length rec_.Obs.Ledger.bugs <> List.length s.Driver.bugs
      then
        fail "ledger record (executed %d, covered %d, bugs %d) differs from the result"
          rec_.Obs.Ledger.executed rec_.Obs.Ledger.covered (List.length rec_.Obs.Ledger.bugs)));
  List.rev !errors

let rec remove path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end
