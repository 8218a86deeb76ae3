(* The benchmark binary:

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--size paper|tiny] [--spans FILE]

   Prints human-readable [metric]/[check]/[span] lines, then one JSON line
   with the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1).  --size tiny shrinks every input for smoke tests. *)

open Kbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let size = ref "paper" and spans = ref "" and list = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measurement budget");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer run");
      ("--size", Arg.Set_string size, "paper|tiny input sizes");
      ("--spans", Arg.Set_string spans, "FILE where a traced run writes its spans");
      ("--list-metrics", Arg.Set list, " print the metric catalogue as JSON lines and exit");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !list then begin
    Report.list_metrics ();
    exit 0
  end;
  let run =
    match List.assoc_opt !workload Workloads.all with
    | Some run -> run
    | None ->
        Printf.eprintf "unknown workload %S (want one of: %s)\n" !workload
          (String.concat ", " (List.map fst Workloads.all));
        exit 2
  in
  let size =
    match !size with
    | "paper" -> Workloads.Paper
    | "tiny" -> Workloads.Tiny
    | s ->
        Printf.eprintf "unknown size %S (want paper or tiny)\n" s;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace wants 0 or 1";
    exit 2
  end;
  let ctx =
    {
      Workloads.size;
      seed = !seed;
      seconds = float_of_int (max 1 !seconds);
      trace = !trace = 1;
      span_file = (if !spans = "" then None else Some !spans);
    }
  in
  let r = run ctx in
  List.iter print_endline r.Report.notes;
  print_endline
    (Report.json (if ctx.Workloads.trace then Report.per_layer else Report.end_to_end) r)
