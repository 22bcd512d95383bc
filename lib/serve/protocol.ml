type work =
  | Lint of { target : string }
  | Analyze of { app : string }
  | Exploit of { app : string }
  | Chaos of { plan : string }
  | Boom of { mode : string; times : int }

let work_class = function
  | Lint _ -> "lint"
  | Analyze _ -> "analyze"
  | Exploit _ -> "exploit"
  | Chaos _ -> "chaos"
  | Boom _ -> "boom"

type request =
  | Work of { id : string; fuel : int option; work : work }
  | Stats of { id : string; full : bool }
  | Flush
  | Shutdown

let parse ~line_id line =
  match Json.parse line with
  | Error msg -> Error ("bad JSON: " ^ msg)
  | Ok json -> (
      let id = Option.value ~default:line_id (Json.field_str "id" json) in
      let required field k =
        match Json.field_str field json with
        | Some v -> k v
        | None -> Error (Printf.sprintf "missing field %S" field)
      in
      let work w = Ok (Work { id; fuel = Json.field_int "fuel" json; work = w }) in
      match Json.field_str "kind" json with
      | None -> Error "missing field \"kind\""
      | Some "lint" -> required "target" (fun target -> work (Lint { target }))
      | Some "analyze" -> required "app" (fun app -> work (Analyze { app }))
      | Some "exploit" -> required "app" (fun app -> work (Exploit { app }))
      | Some "chaos" -> required "plan" (fun plan -> work (Chaos { plan }))
      | Some "boom" ->
          let mode =
            Option.value ~default:"crash" (Json.field_str "mode" json)
          in
          let times = Option.value ~default:max_int (Json.field_int "times" json) in
          work (Boom { mode; times })
      | Some "stats" ->
          Ok
            (Stats
               { id;
                 full = Option.value ~default:false (Json.field_bool "full" json) })
      | Some "flush" -> Ok Flush
      | Some "shutdown" -> Ok Shutdown
      | Some other -> Error (Printf.sprintf "unknown kind %S" other))

let request_id = function
  | Work { id; _ } | Stats { id; _ } -> Some id
  | Flush | Shutdown -> None

type status = Ok_ | Error_ | Deadline | Quarantined | Overloaded

let status_to_string = function
  | Ok_ -> "ok"
  | Error_ -> "error"
  | Deadline -> "deadline"
  | Quarantined -> "quarantined"
  | Overloaded -> "overloaded"

type response = {
  id : string;
  status : status;
  latency : int option;
  attempts : int option;
  body : (string * Json.t) list;
}

let ok ~id ~latency ~attempts result =
  { id; status = Ok_; latency = Some latency; attempts = Some attempts;
    body = [ ("result", result) ] }

let error ~id ?attempts detail =
  { id; status = Error_; latency = None; attempts;
    body = [ ("detail", Json.Str detail) ] }

let deadline ~id ?attempts ~spent () =
  { id; status = Deadline; latency = None; attempts;
    body = [ ("spent", Json.Int spent) ] }

let quarantined ~id ~attempts cause =
  { id; status = Quarantined; latency = None; attempts = Some attempts;
    body =
      [ ("cause", Json.Str (Resilience.Quarantine.cause_to_string cause)) ] }

let overloaded ~id ~depth ~capacity =
  { id; status = Overloaded; latency = None; attempts = None;
    body = [ ("queue", Json.Int depth); ("capacity", Json.Int capacity) ] }

let render r =
  let opt name v rest =
    match v with None -> rest | Some n -> (name, Json.Int n) :: rest
  in
  Json.to_string
    (Json.Obj
       (("id", Json.Str r.id)
        :: ("status", Json.Str (status_to_string r.status))
        :: opt "latency" r.latency (opt "attempts" r.attempts r.body)))
