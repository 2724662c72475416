//! The one JSON writer of the serving front-end.
//!
//! The workspace is dependency-free by design, so JSON is hand-rolled —
//! but hand-rolled *once*: graph stats, telemetry exports, HTTP error
//! bodies and analyzer-rejection diagnostics all render through
//! [`JsonObject`], whose strings go through the workspace's one escaper,
//! [`trace::export::json_string`] (backslash, quote and control
//! characters — panic messages carry newlines, labels are arbitrary
//! caller input via `Runtime::spawn`). A second escaping routine is where
//! injection bugs breed.

use trace::export::json_string;

/// Render an array from pre-rendered JSON values.
pub(crate) fn array(items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(","))
}

/// Incremental `{...}` builder. Field order is insertion order; values
/// go through exactly one escaping path ([`json_string`]) for strings, or in
/// raw for pre-rendered sub-documents.
pub(crate) struct JsonObject {
    buf: String,
}

impl JsonObject {
    pub(crate) fn new() -> Self {
        Self {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, key: &str) -> &mut String {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(key); // keys are compile-time identifiers
        self.buf.push_str("\":");
        &mut self.buf
    }

    /// A string field, escaped.
    pub(crate) fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key).push_str(&json_string(value));
        self
    }

    /// An optional string field: `null` when absent.
    pub(crate) fn opt_str(self, key: &str, value: Option<&str>) -> Self {
        match value {
            Some(v) => self.str(key, v),
            None => self.raw(key, "null"),
        }
    }

    /// An integer field.
    pub(crate) fn num(mut self, key: &str, value: impl Into<u64>) -> Self {
        let v = value.into();
        let buf = self.key(key);
        buf.push_str(&v.to_string());
        self
    }

    /// A float field rendered with one decimal (the workspace's report
    /// convention).
    pub(crate) fn f1(mut self, key: &str, value: f64) -> Self {
        let buf = self.key(key);
        buf.push_str(&format!("{value:.1}"));
        self
    }

    /// A pre-rendered JSON value (array, object, `null`, bool) verbatim.
    pub(crate) fn raw(mut self, key: &str, value: &str) -> Self {
        let buf = self.key(key);
        buf.push_str(value);
        self
    }

    pub(crate) fn build(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_builder_renders_each_field_kind() {
        let json = JsonObject::new()
            .num("id", 3u32)
            .str("label", "a\"b")
            .f1("mean", 1.25)
            .opt_str("failure", None)
            .raw("items", &array(["1".to_string(), "2".to_string()]))
            .build();
        assert_eq!(
            json,
            "{\"id\":3,\"label\":\"a\\\"b\",\"mean\":1.2,\"failure\":null,\"items\":[1,2]}"
        );
        assert_eq!(JsonObject::new().build(), "{}");
        assert_eq!(array(std::iter::empty()), "[]");
    }
}
