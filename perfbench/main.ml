(* The benchmark: one workload per run, single process, single thread.

     main.exe --workload storm|policy|cluster --seed N
              --seconds S --trace 0|1
     main.exe selftest

   The last line of standard output is the JSON result; lines before it
   start with '#'. The exit status is non-zero when a correctness check
   fails. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload storm|policy|cluster --seed N \
     --seconds S --trace 0|1\n       main.exe selftest";
  exit 2

(* Set-ups per run; their median is [setup_s]. *)
let setups = 3

let bench ~workload ~seed ~seconds ~trace =
  let tr = Trace.create ~on:trace in
  let r =
    match workload with
    | "storm" -> Storm.run Storm.storm ~seed ~budget:(Storm.Seconds seconds) ~setups ~tr
    | "cluster" -> Churn.run Churn.cluster ~seed ~budget:(Churn.Seconds seconds) ~setups ~tr
    | "policy" -> Edits.run Edits.policy ~seed ~budget:(Edits.Seconds seconds) ~setups ~tr
    | w -> Printf.eprintf "unknown workload %s\n" w; usage ()
  in
  (match !Util.kernel_ms with
  | [ after; before ] ->
    Printf.printf "# reference_kernel_ms before=%.3f after=%.3f\n" before after
  | _ -> ());
  Printf.printf "# %s seed=%d ops=%d failed=%d wall_s=%.3f\n" workload seed r.Layers.ops
    r.failed r.wall_s;
  List.iteri
    (fun i e -> if i < 20 then Printf.printf "# check failed: %s\n" e)
    r.errors;
  if trace then begin
    Printf.printf "# traced self-time share of wall: %.3f\n" (Layers.self_share r tr);
    let dir = Option.value ~default:"_build/perfbench" (Sys.getenv_opt "PERFBENCH_OUT") in
    if Sys.file_exists dir then
      Trace.write_spans tr
        ~path:(Filename.concat dir (Printf.sprintf "%s-%d.spans.tsv" workload seed))
  end;
  let correct = r.errors = [] in
  Util.print_result ~correct ~attempted:r.ops ~failed:r.failed
    (if trace then Layers.per_layer r tr else Layers.end_to_end r);
  exit (if correct then 0 else 1)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "selftest" ] -> exit (Selftest.run ())
  | args ->
    (* Each of the four options exactly once; anything else is a usage
       error. *)
    let options = [ "--workload"; "--seed"; "--seconds"; "--trace" ] in
    let rec parse acc = function
      | key :: v :: rest when List.mem key options && not (List.mem_assoc key acc) ->
        parse ((key, v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let seconds =
      match float_of_string_opt (get "--seconds") with
      | Some s when s > 0. -> s
      | _ -> usage ()
    in
    let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
    bench ~workload:(get "--workload") ~seed:(int "--seed") ~seconds ~trace
