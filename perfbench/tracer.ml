(* Spans recorded around calls into the libraries' public functions.

   A span has a name, a start, an end and a parent.  Spans are kept in
   memory, one buffer per domain, and only read back between passes.
   The parent is tracked per domain; items of a [par_map] take the map's
   span as their parent, whichever domain runs them.  While recording is
   off, [span] is a direct call. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  name : string;
  calls : int;  (** calls into the library that the span covers *)
  start : float;
  stop : float;
}

let recording = Atomic.make false
let next_id = Atomic.make 1
let lock = Mutex.create ()
let buffers : span list ref list ref = ref []

let buffer =
  Domain.DLS.new_key (fun () ->
      let b = ref [] in
      Mutex.protect lock (fun () -> buffers := b :: !buffers);
      b)

let current = Domain.DLS.new_key (fun () -> ref 0)

let span ?(calls = 1) name f =
  if not (Atomic.get recording) then f ()
  else begin
    let cur = Domain.DLS.get current in
    let parent = !cur in
    let id = Atomic.fetch_and_add next_id 1 in
    cur := id;
    let start = Measure.now () in
    Fun.protect f ~finally:(fun () ->
        let stop = Measure.now () in
        cur := parent;
        let b = Domain.DLS.get buffer in
        b := { id; parent; name; calls; start; stop } :: !b)
  end

(* [Par.map] inside a ["par.map"] span, each item inside a ["par.item"]
   span parented to the map. *)
let par_map ~label f xs =
  span ~calls:(Array.length xs) "par.map" (fun () ->
      if not (Atomic.get recording) then Par.map ~label f xs
      else begin
        let map_id = !(Domain.DLS.get current) in
        Par.map ~label
          (fun x ->
            let cur = Domain.DLS.get current in
            let saved = !cur in
            cur := map_id;
            Fun.protect
              ~finally:(fun () -> cur := saved)
              (fun () -> span "par.item" (fun () -> f x)))
          xs
      end)

let drain () =
  Mutex.protect lock (fun () ->
      List.concat_map
        (fun b ->
          let s = !b in
          b := [];
          s)
        !buffers)

(* Record the spans of [f ()]; returns its value and every span it
   produced. *)
let record f =
  ignore (drain ());
  Atomic.set recording true;
  let v = Fun.protect ~finally:(fun () -> Atomic.set recording false) f in
  (v, drain ())

(* ---- analysis ---------------------------------------------------- *)

type layer = {
  self : float;  (** seconds: durations minus the part children cover *)
  total : float;  (** seconds: summed durations *)
  calls : int;
}

let duration s = s.stop -. s.start

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let rec sweep acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> sweep acc (Some (a, b)) rest
        | Some (ca, cb) ->
            if a <= cb then sweep acc (Some (ca, Float.max cb b)) rest
            else sweep (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  sweep 0. None (List.sort compare clipped)

let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let cover = covered ~lo:s.start ~hi:s.stop (Hashtbl.find_all children s.id) in
      (s, duration s -. cover))
    spans

(* Per span name: summed self time, summed duration and call count. *)
let layers spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let l =
        Option.value (Hashtbl.find_opt tbl s.name)
          ~default:{ self = 0.; total = 0.; calls = 0 }
      in
      Hashtbl.replace tbl s.name
        { self = l.self +. self; total = l.total +. duration s;
          calls = l.calls + s.calls })
    (self_times spans);
  tbl

let layer tbl name =
  Option.value (Hashtbl.find_opt tbl name)
    ~default:{ self = 0.; total = 0.; calls = 0 }

(* ---- output ------------------------------------------------------ *)

let write_jsonl path spans =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"name\": \"%s\", \"calls\": %d, \
             \"start\": %.6f, \"end\": %.6f}\n"
            s.id s.parent s.name s.calls s.start s.stop)
        (List.sort (fun a b -> compare a.id b.id) spans))
