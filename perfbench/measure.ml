(* Wall clock, order statistics, process memory and scratch directories
   shared by the workloads. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile p xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

(* Run [pass] at least [min] times and until [seconds] of wall time
   have gone by since the first pass started. *)
let repeat ~seconds ~min pass =
  let t0 = now () in
  let rec go acc n =
    if n >= min && now () -. t0 >= seconds then List.rev acc
    else go (pass () :: acc) (n + 1)
  in
  go [] 0

(* [repeat] for [seconds], of which the first quarter (at least one
   pass) warms up and is not kept: the first passes on a new domain pool
   run up to half again slower while the heap grows. *)
let measure ~seconds ~min pass =
  ignore (repeat ~seconds:(seconds /. 4.) ~min:1 pass);
  repeat ~seconds:(seconds *. 3. /. 4.) ~min pass

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Run this executable again with [args] and wait for it; its standard
   output.  Fails unless it exits 0. *)
let rerun args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> out
  | _ -> failwith ("failed: " ^ String.concat " " (exe :: args))

(* Collect the previous pass's garbage, so that collecting it is not
   charged to the next pass. *)
let settle () = Gc.full_major ()

