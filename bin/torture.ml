(* The crash-point torture gate (ISSUE 8; docs/CHAOS.md "The torture
   gate").  SQLite-crash-test style: run the whole spill/recover/drain
   lifecycle on the in-memory adversarial filesystem ([Vfs.faulty]) and
   enumerate a deterministic grid of

       crash model x fault site x operation index x fault kind

   single-fault cases, each a plan in the docs/CHAOS.md grammar
   (replayable with --plan).  Every case checks the same contract:

   - {b totality}: [Spill.recover] never raises anything but the injected
     process death ([Vfs.Crashed]); an unreadable journal may refuse the
     {e open} with an explicit error, never an unclassified crash;
   - {b conservation}: every audit balances
     (recovered + quarantined + lost = spilled; [Oracle.store_conservation]);
   - {b no invention}: every drained payload was planted, with its key;
   - {b no resurrection}: no payload is delivered twice — unless a lying
     fsync fired, which voids the durability contract by design
     (docs/CHAOS.md "what a lying fsync voids");
   - {b no silent loss}: items the disk owes (their spill completed) that
     never drain must be on the loss books (lost or quarantined entries
     of the final audit), unless the process died mid-drain (an [R] can
     land with its items unconsumed) or an fsync lied.

   The fault-free baseline must be perfect, and the teeth case (planted
   durable bit rot) must end quarantined, never linked.  Writes
   BENCH_torture.json; exits 1 on any violation. *)

module Vfs = Klsm_store.Vfs
module Store = Klsm_store.Store
module Audit = Klsm_store.Audit
module Chaos = Klsm_chaos.Chaos
module Oracle = Klsm_harness.Oracle
module Report = Klsm_harness.Report
module RealB = Klsm_backend.Real
module Spill = Klsm_store.Spill.Make (RealB)
module K = Klsm_core.Klsm.Make (RealB)
module Bloom = Klsm_primitives.Bloom

let root = "/torture"
let tids = 2
let blocks_per_tid = 3
let items_per = 20
let total = tids * blocks_per_tid * items_per
let key_of v = 7919 * (((v * 31) + 7) mod 997)

(* What the disk owes for each planted payload: [Absent] — its block was
   never offered to the spill tier (nothing durable can exist); [May] —
   the spill was attempted but failed visibly or died (a prefix, or even
   the whole instance, may still have landed); [Must] — the spill
   completed, the cold twin was dropped, the disk is the only copy. *)
type item_state = Absent | May | Must

type outcome = {
  label : string;
  omode : string;
  strict : bool;
  injected : int;
  crashes : int;
  passes : int;
  unopenable : bool;
  drained : int;
  missing : int;
  dups : int;
  quarantined : int;
  lost : int;
  violations : string list;
}

let mk_block pairs = Spill.Block.of_pairs ~filter:Bloom.empty pairs

let mode_name = function
  | Vfs.Process_kill -> "kill"
  | Vfs.Power_loss -> "power"

let run_case ~mode ~fsync ~label rules =
  let f = Vfs.faulty ~mode () in
  Vfs.arm f rules;
  let vfs = Vfs.vfs f in
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun m -> violations := m :: !violations) fmt
  in
  let crashes = ref 0 and passes = ref 0 in
  let state = Array.make total Absent in
  let got = Array.make total 0 in
  let crashed_in_recovery = ref false in
  let stuck_end = ref false in
  let unopenable = ref false in
  let final : Audit.t option ref = ref None in
  let fsynclied () =
    List.exists
      (fun (_, n) -> String.equal n "fsynclie")
      (Vfs.injected_log f)
  in
  (* ---- plant: per-tid cold instances, every cold twin dropped ---- *)
  let plant () =
    let spill =
      Spill.create ~threshold:0 ~fsync ~vfs ~num_threads:tids ~root ()
    in
    let alive _ = true in
    for tid = 0 to tids - 1 do
      for b = 0 to blocks_per_tid - 1 do
        let base = ((tid * blocks_per_tid) + b) * items_per in
        let pairs =
          Array.init items_per (fun i -> (key_of (base + i), base + i))
        in
        for i = 0 to items_per - 1 do
          state.(base + i) <- May
        done;
        (match Spill.maybe_spill spill ~alive ~tid (mk_block pairs) with
        | _cold ->
            for i = 0 to items_per - 1 do
              state.(base + i) <- Must
            done
        | exception Sys_error _ ->
            (* Failed visibly — but a short write can still land a whole
               journal line, so the instance [May] exist. *)
            ())
      done
    done;
    Spill.close spill
  in
  (match plant () with
  | () -> ()
  | exception Vfs.Crashed _ ->
      incr crashes;
      Vfs.crash f
  | exception Sys_error _ -> ());
  (* ---- recover + drain until steady state ----

     A pass is: open, recover, drain.  The loop ends on the first of
     - a {e clean} steady state: a pass drained nothing new with empty
       loss books and a fully readable journal, or
     - a {e sick} steady state: two consecutive quiet passes with
       identical books (a sticky fault that will never heal — the items
       still owed are journal-live on a permanently sick disk), or
     - a persistently unopenable journal (open_journal's id-reuse
       refusal), or
     - the pass cap, which is a violation: recovery never converged. *)
  let rec passes_loop pass prev create_fails =
    if pass >= 10 then violation "no steady state within 10 recovery passes"
    else begin
      incr passes;
      match
        let spill =
          Spill.create ~threshold:0 ~fsync ~vfs ~num_threads:tids ~root ()
        in
        let q = K.create_with ~k:8 ~num_threads:1 () in
        let h = K.register q 0 in
        let a = Spill.recover spill ~link:(fun b -> K.adopt_block h b) in
        (spill, h, a)
      with
      | exception Vfs.Crashed _ ->
          (* Linking can itself rehydrate (adoption may merge a cold
             block into an existing level), so [R] records land during
             recovery and a crash here strands those items in the dead
             RAM image — same at-least-once window as a drain crash. *)
          incr crashes;
          crashed_in_recovery := true;
          Vfs.crash f;
          passes_loop (pass + 1) prev create_fails
      | exception Sys_error _ when create_fails < 2 ->
          (* [open_journal] refuses over unreadable records (the id-reuse
             hazard); transients heal on a later pass. *)
          passes_loop (pass + 1) prev (create_fails + 1)
      | exception Sys_error _ ->
          (* Persistently unopenable: an explicit, classified terminal
             state on a disk this sick — not a totality violation. *)
          unopenable := true
      | exception e ->
          violation "recovery totality broken: raised %s"
            (Printexc.to_string e)
      | spill, h, a -> (
          List.iter
            (fun v -> violation "conservation: %s" v)
            (Oracle.store_conservation a);
          final := Some a;
          let drained_this = ref 0 in
          let rec drain retries =
            match K.try_delete_min h with
            | Some (dk, v) ->
                if v < 0 || v >= total then
                  violation "drained payload %d was never planted" v
                else begin
                  (match state.(v) with
                  | Absent ->
                      violation
                        "payload %d drained but its block never spilled" v
                  | May | Must -> ());
                  if dk <> key_of v then
                    violation "payload %d drained with key %d, planted %d" v
                      dk (key_of v);
                  got.(v) <- got.(v) + 1;
                  incr drained_this
                end;
                drain 0
            | None -> `Drained
            | exception Vfs.Crashed _ -> `Crashed
            | exception Sys_error _ when retries < 3 -> drain (retries + 1)
            | exception Sys_error _ ->
                (* Persistent read failure mid-drain: no [R] landed for
                   the stuck block, so the next pass re-classifies it
                   (usually to lost). *)
                `Stuck
            | exception e ->
                violation "drain raised %s" (Printexc.to_string e);
                `Drained
          in
          let d = drain 0 in
          if Sys.getenv_opt "TORTURE_DEBUG" <> None then begin
            Printf.eprintf "pass %d: %s; drain=%s(%d); log=[%s]\n%!" pass
              (Audit.summary a)
              (match d with
              | `Drained -> "drained"
              | `Crashed -> "crashed"
              | `Stuck -> "stuck")
              !drained_this
              (String.concat "; "
                 (List.map
                    (fun (s, n) -> s ^ ":" ^ n)
                    (Vfs.injected_log f)));
            let jd = Filename.concat root "journal" in
            List.iter
              (fun name ->
                let p = Filename.concat jd name in
                if vfs.Vfs.file_exists p then
                  Printf.eprintf "  %s:\n%s%!" name
                    (String.concat ""
                       (List.map
                          (fun l -> "    | " ^ l ^ "\n")
                          (String.split_on_char '\n' (vfs.Vfs.read_file p)))))
              [ "epoch.log"; "events.log"; "spill-0.log"; "spill-1.log" ]
          end;
          (try Spill.close spill with _ -> ());
          match d with
          | `Crashed ->
              incr crashes;
              crashed_in_recovery := true;
              Vfs.crash f;
              passes_loop (pass + 1) prev create_fails
          | (`Drained | `Stuck) as d ->
              let quiet = !drained_this = 0 in
              let books = (a.Audit.lost, a.Audit.unreadable_files) in
              if
                d = `Drained && quiet && a.Audit.lost = 0
                && a.Audit.unreadable_files = 0
              then (* clean steady state: nothing owed, books empty *) ()
              else if quiet && prev = Some books then begin
                (* sick steady state: the books stopped moving *)
                if d = `Stuck || a.Audit.unreadable_files > 0 then
                  stuck_end := true
              end
              else
                passes_loop (pass + 1)
                  (if quiet then Some books else None)
                  create_fails)
    end
  in
  passes_loop 0 None 0;
  (* ---- the books ---- *)
  let missing = ref 0 and dups = ref 0 in
  Array.iteri
    (fun v n ->
      (match state.(v) with
      | Must when n = 0 -> incr missing
      | _ -> ());
      if n > 1 then begin
        incr dups;
        if not (fsynclied ()) then
          violation "payload %d delivered %d times (resurrection)" v n
      end)
    got;
  (match !final with
  | Some a ->
      (* Missing items are excused only by an explicit, visible account:
         the loss books (lost + quarantined), a crash boundary crossed
         after recovery began ([R] records strand items in the dead RAM
         image — the documented at-least-once window), a lying fsync
         (which voids every durability promise), a journal the final
         audit itself reports unreadable, or a disk so sick the journal
         never opened / the drain wedged for good. *)
      let slack = a.Audit.lost_items + a.Audit.quarantined_items in
      if
        !missing > slack
        && (not !crashed_in_recovery)
        && (not (fsynclied ()))
        && (not !unopenable)
        && (not !stuck_end)
        && a.Audit.unreadable_files = 0
      then
        violation "%d owed item(s) missing with only %d on the loss books"
          !missing slack
  | None ->
      if not !unopenable then violation "no recovery pass ever completed");
  {
    label;
    omode = mode_name mode;
    strict = fsync;
    injected = Vfs.injected f;
    crashes = !crashes;
    passes = !passes;
    unopenable = !unopenable;
    drained = Array.fold_left ( + ) 0 got;
    missing = !missing;
    dups = !dups;
    quarantined = (match !final with Some a -> a.Audit.quarantined | None -> 0);
    lost = (match !final with Some a -> a.Audit.lost | None -> 0);
    violations = List.rev !violations;
  }

(* The teeth case: plant durable bit rot under a healthy run and demand
   recovery quarantines it — the one failure the gate exists to catch.
   A harness that lets this pass would also let a real resurrection or a
   silently-linked corrupt block through. *)
let run_teeth () =
  let f = Vfs.faulty () in
  let vfs = Vfs.vfs f in
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun m -> violations := m :: !violations) fmt
  in
  let spill = Spill.create ~threshold:0 ~vfs ~num_threads:1 ~root () in
  let alive _ = true in
  for b = 0 to 1 do
    let base = b * items_per in
    let pairs =
      Array.init items_per (fun i -> (key_of (base + i), base + i))
    in
    ignore (Spill.maybe_spill spill ~alive ~tid:0 (mk_block pairs))
  done;
  Spill.close spill;
  (* Rot one object in place, durably, through the seam. *)
  let s = Store.open_store ~vfs ~root () in
  let digests = ref [] in
  Store.iter_objects s (fun d -> digests := d :: !digests);
  let victim = List.hd (List.sort compare !digests) in
  let path = Store.object_path s victim in
  let bytes = Bytes.of_string (vfs.Vfs.read_file path) in
  let pos = Bytes.length bytes / 3 in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 1));
  let h = vfs.Vfs.create path in
  h.Vfs.h_write (Bytes.unsafe_to_string bytes);
  h.Vfs.h_close ();
  let spill2 = Spill.create ~threshold:0 ~vfs ~num_threads:1 ~root () in
  let q = K.create_with ~k:8 ~num_threads:1 () in
  let qh = K.register q 0 in
  let a = Spill.recover spill2 ~link:(fun b -> K.adopt_block qh b) in
  List.iter
    (fun v -> violation "conservation: %s" v)
    (Oracle.store_conservation a);
  if a.Audit.quarantined <> 1 then
    violation "planted bit rot not quarantined (got %d)" a.Audit.quarantined;
  if a.Audit.recovered <> 1 then
    violation "healthy sibling block not recovered (got %d)" a.Audit.recovered;
  if not (Store.quarantined s victim) then
    violation "no evidence under quarantine/ for %s" victim;
  let drained = ref 0 in
  let rec drain () =
    match K.try_delete_min qh with
    | Some (dk, v) ->
        if dk <> key_of v then violation "teeth drain: wrong key for %d" v;
        incr drained;
        drain ()
    | None -> ()
  in
  drain ();
  if !drained <> items_per then
    violation "teeth drained %d items; only the clean block's %d are owed"
      !drained items_per;
  Spill.close spill2;
  {
    label = "teeth:bitrot-quarantined";
    omode = "kill";
    strict = false;
    injected = 0;
    crashes = 0;
    passes = 1;
    unopenable = false;
    drained = !drained;
    missing = 0;
    dups = 0;
    quarantined = a.Audit.quarantined;
    lost = a.Audit.lost;
    violations = List.rev !violations;
  }

(* ---- the grid ---- *)

let grid_kinds =
  [
    ( "vfs.write",
      [ "torn:9"; "shortwrite:7"; "eio"; "enospc"; "enospc:sticky"; "crash" ]
    );
    ("vfs.read", [ "eio"; "eio:sticky"; "bitflip" ]);
    ("vfs.rename", [ "eio"; "droprename"; "crash" ]);
    ("vfs.fsync", [ "fsynclie"; "eio"; "crash" ]);
    ("vfs.fsyncdir", [ "fsynclie"; "eio" ]);
    ("vfs.remove", [ "eio"; "eio:sticky"; "crash" ]);
  ]

let grid_hits = [ 1; 2; 3; 5; 8; 13; 21 ]
let configs = [ (Vfs.Power_loss, true); (Vfs.Process_kill, false) ]

let rules_of_plan text =
  match Chaos.parse_plan text with
  | Ok plan -> Chaos.io_rules plan
  | Error e -> failwith (Printf.sprintf "bad plan %S: %s" text e)

let run_baseline (mode, fsync) =
  let o =
    run_case ~mode ~fsync
      ~label:(Printf.sprintf "baseline:%s" (mode_name mode))
      []
  in
  let extra = ref [] in
  if o.drained <> total then
    extra :=
      Printf.sprintf "baseline drained %d of %d" o.drained total :: !extra;
  if o.lost <> 0 || o.quarantined <> 0 then
    extra :=
      Printf.sprintf "baseline lost %d / quarantined %d" o.lost o.quarantined
      :: !extra;
  { o with violations = o.violations @ List.rev !extra }

let outcome_json o =
  Report.Obj
    [
      ("label", Report.String o.label);
      ("mode", Report.String o.omode);
      ("strict", Report.Bool o.strict);
      ("injected", Report.Int o.injected);
      ("crashes", Report.Int o.crashes);
      ("passes", Report.Int o.passes);
      ("unopenable", Report.Bool o.unopenable);
      ("drained", Report.Int o.drained);
      ("missing", Report.Int o.missing);
      ("dups", Report.Int o.dups);
      ("quarantined", Report.Int o.quarantined);
      ("lost", Report.Int o.lost);
      ( "violations",
        Report.List (List.map (fun v -> Report.String v) o.violations) );
    ]

let run_grid ~out =
  let cases = ref [] in
  List.iter (fun cfg -> cases := run_baseline cfg :: !cases) configs;
  List.iter
    (fun (mode, fsync) ->
      List.iter
        (fun (site, kinds) ->
          List.iter
            (fun kind ->
              List.iter
                (fun hit ->
                  let plan = Printf.sprintf "%s@%d:%s" site hit kind in
                  let label =
                    Printf.sprintf "%s/%s" (mode_name mode) plan
                  in
                  cases :=
                    run_case ~mode ~fsync ~label (rules_of_plan plan)
                    :: !cases)
                grid_hits)
            kinds)
        grid_kinds)
    configs;
  cases := run_teeth () :: !cases;
  let cases = List.rev !cases in
  let violated =
    List.filter (fun o -> o.violations <> []) cases
  in
  let injected = List.fold_left (fun n o -> n + o.injected) 0 cases in
  let crashes = List.fold_left (fun n o -> n + o.crashes) 0 cases in
  Report.write_json ~path:out
    (Report.Obj
       [
         ("benchmark", Report.String "torture");
         ("metric", Report.String "violations across the crash-point grid");
         ("cases", Report.Int (List.length cases));
         ("injected_faults", Report.Int injected);
         ("crash_boundaries", Report.Int crashes);
         ("violating_cases", Report.Int (List.length violated));
         ("results", Report.List (List.map outcome_json cases));
       ]);
  List.iter
    (fun o ->
      List.iter
        (fun v -> Printf.printf "torture VIOLATION [%s]: %s\n" o.label v)
        o.violations)
    violated;
  Printf.printf
    "torture: %d cases, %d faults injected, %d crash boundaries, %d \
     violating case(s)\n\
     wrote %s\n\
     %!"
    (List.length cases) injected crashes (List.length violated) out;
  if violated <> [] then exit 1;
  print_string "torture-check OK\n"

let run_one ~plan ~mode ~strict =
  let mode =
    match mode with
    | "kill" -> Vfs.Process_kill
    | "power" -> Vfs.Power_loss
    | m -> failwith (Printf.sprintf "unknown mode %S (kill|power)" m)
  in
  let o =
    run_case ~mode ~fsync:strict
      ~label:(Printf.sprintf "%s/%s" (mode_name mode) plan)
      (rules_of_plan plan)
  in
  print_string (Report.json_to_string (outcome_json o));
  print_newline ();
  if o.violations <> [] then exit 1

open Cmdliner

let plan =
  Arg.(
    value
    & opt (some string) None
    & info [ "plan" ] ~docv:"PLAN"
        ~doc:
          "Replay one grid case: a docs/CHAOS.md plan over the vfs.* \
           sites (e.g. vfs.write@3:torn:9).  Without this, the full \
           deterministic grid runs.")

let mode =
  Arg.(
    value & opt string "kill"
    & info [ "mode" ] ~docv:"MODE"
        ~doc:"Crash model for --plan: kill (process) or power (media).")

let strict =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:"Run --plan in strict durability mode (fsync everything).")

let out =
  Arg.(
    value & opt string "BENCH_torture.json"
    & info [ "out" ] ~docv:"FILE" ~doc:"Grid report path.")

let cmd =
  let doc = "crash-point torture grid for the k-LSM spill tier" in
  Cmd.v
    (Cmd.info "torture" ~doc)
    Term.(
      const (fun plan mode strict out ->
          match plan with
          | Some plan -> run_one ~plan ~mode ~strict
          | None -> run_grid ~out)
      $ plan $ mode $ strict $ out)

let () = exit (Cmd.eval cmd)
