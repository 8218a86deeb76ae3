(* The benchmark's own correctness checks must have teeth: a queue handle
   that silently drops one insert trips the fig3-mix conservation check,
   while the same run through untouched handles passes it. *)

open Kbench

let () =
  let clean = Mix.rep Mix.tiny ~seed:7 in
  if clean.Mix.violations <> [] then begin
    List.iter prerr_endline clean.Mix.violations;
    failwith "conservation check failed on an untouched queue"
  end;
  if not (Mix.teeth_trips ()) then
    failwith "conservation check missed a dropped insert";
  print_endline "perfbench checks: clean run conserved, planted drop caught"
