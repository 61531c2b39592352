(* The traced run's instruments, all outside the program: the time of
   the harness's own calls into public functions, split into self time
   per layer (a call's time minus the time of calls timed inside it),
   spans with parents kept in memory, and GC pause time read back from
   the runtime's event ring. With [on = false] every entry point is a
   plain call. *)

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

type t = {
  on : bool;
  mutable recording : bool;  (* cleared when the timed phase ends *)
  self : (string, float ref) Hashtbl.t;
  mutable stack : (int * float ref) list;  (* open span id, child time *)
  mutable spans : span list;
  mutable next_id : int;
  mutable gc_minor_ns : int;
  mutable gc_major_ns : int;
  gc_open : (Runtime_events.runtime_phase, int64) Hashtbl.t;
  mutable cursor : (Runtime_events.cursor * Runtime_events.Callbacks.t) option;
}

let create ~on =
  { on; recording = on; self = Hashtbl.create 16; stack = []; spans = []; next_id = 1;
    gc_minor_ns = 0; gc_major_ns = 0; gc_open = Hashtbl.create 4;
    cursor = None }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let add t name d =
  match Hashtbl.find_opt t.self name with
  | Some r -> r := !r +. d
  | None -> Hashtbl.replace t.self name (ref d)

let self_s t name =
  match Hashtbl.find_opt t.self name with Some r -> !r | None -> 0.

let parent t = match t.stack with (id, _) :: _ -> id | [] -> 0

let record t ~id ~parent ~name ~t0 ~t1 =
  t.spans <- { id; parent; name; t0; t1 } :: t.spans

(* Time [f] as layer [name]: its span is a child of the innermost open
   one, and its self time excludes the layers timed inside it. With
   [cpu], the duration counted is process CPU seconds rather than wall
   seconds (the span keeps its wall start and end). *)
let time ?(cpu = false) t name f =
  if not t.recording then f ()
  else begin
    let id = fresh_id t in
    let kids = ref 0. in
    let up = parent t in
    t.stack <- (id, kids) :: t.stack;
    let t0 = Util.now () and c0 = Sys.time () in
    let r = f () in
    let t1 = Util.now () in
    t.stack <- List.tl t.stack;
    let d = if cpu then Sys.time () -. c0 else t1 -. t0 in
    (match t.stack with (_, k) :: _ -> k := !k +. d | [] -> ());
    add t name (d -. !kids);
    record t ~id ~parent:up ~name ~t0 ~t1;
    r
  end

(* Attribute [d] seconds measured by the program's own accounting to
   [name], moving them out of the innermost open span's self time. *)
let attribute t name d =
  if t.recording then begin
    add t name d;
    match t.stack with (_, k) :: _ -> k := !k +. d | [] -> ()
  end

(* --- GC pause time from the runtime event ring ---------------------------- *)

let callbacks t =
  let ns ts = Runtime_events.Timestamp.to_int64 ts in
  let tracked = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false
  in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ ts phase ->
      if tracked phase then Hashtbl.replace t.gc_open phase (ns ts))
    ~runtime_end:(fun _ ts phase ->
      match Hashtbl.find_opt t.gc_open phase with
      | None -> ()
      | Some b ->
        Hashtbl.remove t.gc_open phase;
        let d = Int64.to_int (Int64.sub (ns ts) b) in
        if phase = Runtime_events.EV_MINOR then
          t.gc_minor_ns <- t.gc_minor_ns + d
        else t.gc_major_ns <- t.gc_major_ns + d)
    ()

let poll_gc t =
  match t.cursor with
  | Some (c, cb) when t.recording -> ignore (Runtime_events.read_poll c cb None)
  | _ -> ()

(* Start counting GC time from here (drains what happened before). *)
let start_gc t =
  if t.on then begin
    if t.cursor = None then begin
      Runtime_events.start ();
      t.cursor <- Some (Runtime_events.create_cursor None, callbacks t)
    end;
    poll_gc t;
    t.gc_minor_ns <- 0;
    t.gc_major_ns <- 0
  end

let gc_s t =
  (float_of_int t.gc_minor_ns /. 1e9, float_of_int t.gc_major_ns /. 1e9)

(* Forget everything timed so far (set-up); the timed phase starts. *)
let reset t =
  t.recording <- t.on;
  Hashtbl.reset t.self;
  t.spans <- [];
  start_gc t

(* The timed phase ends: what follows (drain, checks) is not recorded. *)
let stop t =
  poll_gc t;
  t.recording <- false

(* Spans go to a tab-separated file when the run ends. *)
let write_spans t ~path =
  if t.on then
    try
      let oc = open_out path in
      output_string oc "id\tparent\tname\tstart_s\tend_s\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%s\t%.6f\t%.6f\n" s.id s.parent s.name
            s.t0 s.t1)
        (List.rev t.spans);
      close_out oc
    with Sys_error e -> Printf.eprintf "spans not written: %s\n%!" e
