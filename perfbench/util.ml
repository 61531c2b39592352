(* Clock, order statistics, the reference kernel and the result line. *)

let now = Unix.gettimeofday

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of an already sorted array; 0 when empty. *)
let pct a p =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let i = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))

let median xs = pct (sorted xs) 0.5

(* A fixed CPU loop of integer mixing and short-lived allocation, the
   two things the controller does most, timed right before and after a
   timed phase: it shows whether the run fell in a slow stretch of the
   machine. *)
let reference_kernel () =
  let t0 = now () in
  let acc = ref 0 in
  for i = 1 to 3_000_000 do
    let l = [ i; !acc ] in
    acc := (List.fold_left ( + ) 0 l * 0x2545F4914F6CDD1D) lxor (i lsr 3)
  done;
  ((now () -. t0) *. 1000.) +. float_of_int (!acc land 0)

(* Set up [n] times anew: the median set-up time and the last
   rig (earlier ones are garbage before the next starts). *)
let set_up n f =
  let times = ref [] and last = ref None in
  for _ = 1 to n do
    last := None;
    Gc.compact ();
    let t0 = now () in
    let r = f () in
    times := (now () -. t0) :: !times;
    last := Some r
  done;
  (median !times, Option.get !last)

(* Reference-kernel times taken right before and after a timed phase,
   newest first. *)
let kernel_ms = ref []

let kernel_mark () = kernel_ms := reference_kernel () :: !kernel_ms

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1_048_576.

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* The last line of standard output: the benchmark's whole result. *)
let print_result ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun (name, unit_, v) ->
        if not (Float.is_finite v) then
          failwith ("metric " ^ name ^ " is not a finite number");
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
          (json_escape name) (json_num v) (json_escape unit_))
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

let fail fmt = Printf.ksprintf failwith fmt
