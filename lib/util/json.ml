type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_float buf x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" x)
  else begin
    (* Shortest representation that round-trips. *)
    let s = Printf.sprintf "%.12g" x in
    if float_of_string s = x then Buffer.add_string buf s
    else Buffer.add_string buf (Printf.sprintf "%.17g" x)
  end

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> if Float.is_finite x then add_float buf x else Buffer.add_string buf "null"
  | String s -> add_escaped buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf key;
          Buffer.add_char buf ':';
          to_buffer buf value)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      incr pos
    done;
    !v
  in
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'; incr pos
          | '\\' -> Buffer.add_char buf '\\'; incr pos
          | '/' -> Buffer.add_char buf '/'; incr pos
          | 'b' -> Buffer.add_char buf '\b'; incr pos
          | 'f' -> Buffer.add_char buf '\012'; incr pos
          | 'n' -> Buffer.add_char buf '\n'; incr pos
          | 'r' -> Buffer.add_char buf '\r'; incr pos
          | 't' -> Buffer.add_char buf '\t'; incr pos
          | 'u' ->
              incr pos;
              let cp = hex4 () in
              let cp =
                (* Combine a surrogate pair; unpaired surrogates have
                   no UTF-8 encoding, so reject them. *)
                if cp >= 0xd800 && cp <= 0xdbff then begin
                  if not (!pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
                    fail "unpaired high surrogate";
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo >= 0xdc00 && lo <= 0xdfff then
                    0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
                  else fail "unpaired high surrogate"
                end
                else if cp >= 0xdc00 && cp <= 0xdfff then fail "unpaired low surrogate"
                else cp
              in
              add_utf8 buf cp
          | c -> fail (Printf.sprintf "bad escape %C" c));
          go ()
      | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    (* RFC 8259: int ["." 1*DIGIT] [("e"/"E") ["+"/"-"] 1*DIGIT] where
       int = "0" / %x31-39 *DIGIT — no leading zeros, and both the
       fraction and the exponent require at least one digit. *)
    let start = !pos in
    let skip_digits () =
      while (match peek () with '0' .. '9' -> true | _ -> false) do incr pos done
    in
    if peek () = '-' then incr pos;
    (match peek () with
    | '0' ->
        incr pos;
        (match peek () with
        | '0' .. '9' -> fail "leading zero in number"
        | _ -> ())
    | '1' .. '9' -> skip_digits ()
    | _ -> fail "expected digit in number");
    let integral = ref true in
    if peek () = '.' then begin
      integral := false;
      incr pos;
      (match peek () with
      | '0' .. '9' -> skip_digits ()
      | _ -> fail "expected digit after '.' in number")
    end;
    (match peek () with
    | 'e' | 'E' ->
        integral := false;
        incr pos;
        (match peek () with '+' | '-' -> incr pos | _ -> ());
        (match peek () with
        | '0' .. '9' -> skip_digits ()
        | _ -> fail "expected digit in exponent")
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !integral then
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some x -> Float x
          | None -> fail (Printf.sprintf "bad number %S" text))
    else
      match float_of_string_opt text with
      | Some x -> Float x
      | None -> fail (Printf.sprintf "bad number %S" text)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> String (string_lit ())
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then begin
          incr pos;
          List []
        end
        else begin
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
                incr pos;
                items (v :: acc)
            | ']' ->
                incr pos;
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
    | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let key = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            (key, v)
          in
          let rec fields acc =
            let f = field () in
            skip_ws ();
            match peek () with
            | ',' ->
                incr pos;
                fields (f :: acc)
            | '}' ->
                incr pos;
                List.rev (f :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "expected a JSON value"
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (if String.trim line = "" then acc else of_string line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let write path j =
  let oc = open_out path in
  (try
     output_string oc (to_string j);
     output_char oc '\n'
   with e ->
     close_out oc;
     raise e);
  close_out oc

let field j name = match j with Obj fields -> List.assoc_opt name fields | _ -> None

let int_field j name = match field j name with Some (Int i) -> Some i | _ -> None

let float_field j name =
  match field j name with
  | Some (Float x) -> Some x
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None

let string_field j name = match field j name with Some (String s) -> Some s | _ -> None

let bool_field j name = match field j name with Some (Bool b) -> Some b | _ -> None

exception Missing of string

let need name = function Some v -> v | None -> raise (Missing name)

let decode f = match f () with v -> Ok v | exception Missing name -> Error name
